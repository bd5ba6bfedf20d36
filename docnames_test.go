package repro

// The doc-drift guard for identifiers: every backticked `pkg.Name` or
// `pkg.Type.Member` (optionally called, `pkg.Name(args)`) in README.md
// and DESIGN.md whose pkg is a package under internal/ must name a
// declaration of that package; as with go doc, a Name may also be a
// method or field of one of its types. Names resolve by parsing the
// package's files, its _test.go files included, so test names resolve
// too. `make doccheck` runs it.

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// docName matches a whole backticked span naming pkg.Name or
// pkg.Type.Member, with an optional call after it.
var docName = regexp.MustCompile("`([a-z0-9]+)\\.([A-Za-z_]\\w*)(?:\\.([A-Za-z_]\\w*))?(?:\\([^`]*\\))?`")

func TestDocNamesResolve(t *testing.T) {
	pkgs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]*pkgDecls{}
	for _, dir := range pkgs {
		d, err := parseDecls(dir)
		if err != nil {
			t.Fatal(err)
		}
		decls[filepath.Base(dir)] = d
	}
	metrics, err := benchmarkMetrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docName.FindAllSubmatch(text, -1) {
			pkg, name, member := string(m[1]), string(m[2]), string(m[3])
			d := decls[pkg]
			if d == nil || metrics[pkg+"."+name] {
				continue // not an internal package, or a metric the benchmark reports
			}
			if ok := d.names[name] || d.anyMember[name]; !ok || (member != "" && !d.hasMember(name, member, 0)) {
				t.Errorf("%s names %s, which does not resolve in internal/%s", doc, m[0], pkg)
			}
		}
	}
}

// pkgDecls is what one package declares: its package-level names, per
// type the fields and methods it declares and the types it embeds, and
// every type's members together.
type pkgDecls struct {
	names     map[string]bool
	members   map[string]map[string]bool
	embeds    map[string][]string
	anyMember map[string]bool
}

func parseDecls(dir string) (*pkgDecls, error) {
	d := &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}, anyMember: map[string]bool{}}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch x := decl.(type) {
			case *ast.FuncDecl:
				if x.Recv == nil {
					d.names[x.Name.Name] = true
				} else {
					d.member(recvName(x.Recv.List[0].Type), x.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						d.names[s.Name.Name] = true
						d.typeMembers(s.Name.Name, s.Type)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							d.names[id.Name] = true
						}
					}
				}
			}
		}
	}
	return d, nil
}

func (d *pkgDecls) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
	d.anyMember[name] = true
}

// typeMembers records the fields of a struct type and the methods of
// an interface type, and the names of the types either embeds.
func (d *pkgDecls) typeMembers(typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch t := expr.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			d.embeds[typ] = append(d.embeds[typ], recvName(f.Type))
			d.member(typ, recvName(f.Type))
		}
		for _, id := range f.Names {
			d.member(typ, id.Name)
		}
	}
}

// hasMember reports whether typ declares member or promotes it from a
// type of the same package that it embeds.
func (d *pkgDecls) hasMember(typ, member string, depth int) bool {
	if d.members[typ][member] {
		return true
	}
	for _, e := range d.embeds[typ] {
		if depth < 8 && d.hasMember(e, member, depth+1) {
			return true
		}
	}
	return false
}

// recvName is the type name of a receiver or embedded field: T, *T,
// T[K] or pkg.T.
func recvName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// benchmarkMetrics is the set of metric names BENCHMARK.json declares,
// such as `persist.open_s`, which read like identifiers.
func benchmarkMetrics() (map[string]bool, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	metrics := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}
	return metrics, nil
}
