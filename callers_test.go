package repro

// The reachability check: every package-level name declared in a
// non-test file under internal/ has a caller. It type-checks the module
// from source with the standard library alone (go/parser, go/types,
// and go/importer for the standard library's export data), so it needs
// no tool the module does not already have. DESIGN.md "Every name has a
// caller" gives the rules, and why fields are outside both and types,
// consts and vars outside R2.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// callerAllowlist holds the names the rules flag that stay anyway, each
// with the reason. An entry the rules no longer flag fails the check as
// stale, so the list cannot outlive its reasons.
var callerAllowlist = map[string]string{
	"indextest.CheckBuilder": "the package exists for other packages' tests",
	"pgm.Index.AvgLog2Error": "the paper's log2-error metric; registry's GOMAXPROCS test compares it bit for bit through a test-declared interface",
	"rs.Index.AvgLog2Error":  "the paper's log2-error metric; registry's GOMAXPROCS test compares it bit for bit through a test-declared interface",
	"stats.HistMaxRelError":  "the histogram's documented error bound, which its tests hold it to",
	"net.RoleNone":           "wire value 0 of the role byte; deleting it would renumber the block",
	"net.Client.Delete":      "the client half of MsgDelete, which the server serves and the fuzz corpus covers",
	"dataset.AbsentLookups":  "the absent-key input generator three packages' tests share",
	"serve.Store.Scan":       "the store's range read",
}

// stdMethodNames are methods named like a well-known standard-library
// interface method; a package such as fmt or io may call them through
// an interface the module never names.
var stdMethodNames = map[string]bool{
	"String": true, "Error": true, "Format": true, "Read": true, "Write": true,
	"Close": true, "ReadAt": true, "ServeHTTP": true, "MarshalJSON": true,
	"Unwrap": true, "Is": true, "Len": true, "Less": true, "Swap": true,
}

func TestEveryNameHasACaller(t *testing.T) {
	fails, err := checkCallers(".", callerAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fails {
		t.Error(f)
	}
	if len(fails) > 0 {
		t.Log("R1: delete the name (or move a test-only helper into a _test.go file); " +
			"R2: unexport it; or add it to callerAllowlist with the reason it stays")
	}

	t.Run("planted", func(t *testing.T) {
		root := t.TempDir()
		for name, src := range plantedModule {
			path := filepath.Join(root, filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := checkCallers(root, map[string]string{"a.Gone": "planted stale entry"})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			"R1 dead: a.TestOnly (internal/a/a.go:20)",
			"R1 dead: a.UnusedExported (internal/a/a.go:7)",
			"R1 dead: a.selfOnly (internal/a/a.go:9)",
			"R1 dead: a.unusedUnexported (internal/a/a.go:8)",
			"R2 over-exported: a.T.Inner (internal/a/a.go:18)",
			"stale allowlist entry: a.Gone (no rule flags it)",
		}
		if !slices.Equal(got, want) {
			t.Errorf("planted module:\n got %q\nwant %q", got, want)
		}
	})
}

// plantedModule holds one case per rule, plus the two method kinds the
// interface exemption must let through: Sq.Area satisfies an interface
// another package calls, G.Size a type-parameter constraint.
var plantedModule = map[string]string{
	"go.mod": "module planted\n\ngo 1.24\n",
	"internal/a/a.go": `package a

func Used() int { return helper() }

func helper() int { return 1 }

func UnusedExported()   {}
func unusedUnexported() {}
func selfOnly(n int) int {
	if n == 0 {
		return 0
	}
	return selfOnly(n - 1)
}

type T struct{}

func (T) Inner() int { return 2 }
func UseInner() int  { return T{}.Inner() }
func TestOnly()      {}

type Sq struct{}

func (Sq) Area() int { return 4 }

type G struct{}

func (G) Size() int { return 3 }
`,
	"internal/a/a_test.go": "package a\n\nfunc useTestOnly() { TestOnly() }\n",
	"internal/b/b.go": `package b

import "planted/internal/a"

type shaper interface{ Area() int }

func total(s shaper) int { return s.Area() }

func sizes[E interface{ Size() int }](xs []E) (n int) {
	for _, x := range xs {
		n += x.Size()
	}
	return n
}

func Run() int { return total(a.Sq{}) + sizes([]a.G{{}}) + a.Used() + a.UseInner() }
`,
	"cmd/planted/main.go": "package main\n\nimport \"planted/internal/b\"\n\nfunc main() { _ = b.Run() }\n",
}

// modPkg is one directory of the module: its non-test files, its
// in-package test files and its external (_test package) test files.
type modPkg struct {
	path                 string
	files, tests, xtests []*ast.File
	pkg                  *types.Package // the non-test files, type-checked
	info                 *types.Info
}

// candidate is one package-level name under internal/.
type candidate struct {
	name     string    // pkg.[Recv.]Name
	where    string    // file:line, relative to the module root
	from, to token.Pos // the name's own declaration
	obj      types.Object
	live     bool // referenced from a non-test file outside its own declaration
	outside  bool // referenced from another package or an external test package
}

type callerCheck struct {
	root, mod string
	fset      *token.FileSet
	pkgs      map[string]*modPkg
	std       types.Importer
}

// checkCallers applies R1 and R2 to the module rooted at root and
// returns one line per failure, sorted.
func checkCallers(root string, allow map[string]string) ([]string, error) {
	c := &callerCheck{root: root, fset: token.NewFileSet(), pkgs: map[string]*modPkg{}, std: importer.Default()}
	if err := c.load(); err != nil {
		return nil, err
	}
	for _, p := range c.pkgs {
		if _, err := c.Import(p.path); err != nil {
			return nil, err
		}
	}

	cands := map[token.Pos]*candidate{}
	var ifaces []*types.Interface
	for _, p := range c.pkgs {
		ifaces = appendInterfaces(ifaces, p.info)
		if !strings.HasPrefix(p.path, c.mod+"/internal/") {
			continue
		}
		for _, cd := range c.candidates(p) {
			cands[cd.obj.Pos()] = cd
		}
	}

	// Every use from every file of the module, tests included: the
	// non-test files as their packages build, each package's files with
	// its in-package tests, and each external test package.
	record := func(info *types.Info, pkgPath string) {
		for id, obj := range info.Uses {
			obj = origin(obj)
			if obj.Pkg() == nil {
				continue
			}
			cd := cands[obj.Pos()]
			if cd == nil || cd.obj.Pkg().Path() != obj.Pkg().Path() || cd.obj.Name() != obj.Name() {
				continue
			}
			if !strings.HasSuffix(c.fset.Position(id.Pos()).Filename, "_test.go") &&
				(id.Pos() < cd.from || id.Pos() >= cd.to) {
				cd.live = true
			}
			if pkgPath != obj.Pkg().Path() {
				cd.outside = true
			}
		}
	}
	for _, p := range c.pkgs {
		record(p.info, p.path)
		if len(p.tests) > 0 {
			record(c.checkTests(p.path, append(slices.Clip(p.files), p.tests...)), p.path)
		}
		if len(p.xtests) > 0 {
			record(c.checkTests(p.path+"_test", p.xtests), p.path+"_test")
		}
	}

	var fails []string
	flagged := map[string]bool{}
	for _, cd := range cands {
		if exempt(cd.obj, ifaces) {
			continue
		}
		rule := ""
		switch _, fn := cd.obj.(*types.Func); {
		case !cd.live:
			rule = "R1 dead"
		case fn && cd.obj.Exported() && !cd.outside:
			rule = "R2 over-exported"
		default:
			continue
		}
		flagged[cd.name] = true
		if _, ok := allow[cd.name]; !ok {
			fails = append(fails, fmt.Sprintf("%s: %s (%s)", rule, cd.name, cd.where))
		}
	}
	for name := range allow {
		if !flagged[name] {
			fails = append(fails, fmt.Sprintf("stale allowlist entry: %s (no rule flags it)", name))
		}
	}
	slices.Sort(fails)
	return fails, nil
}

// load parses every package directory of the module, skipping testdata
// and files the default build context excludes.
func (c *callerCheck) load() error {
	gomod, err := os.ReadFile(filepath.Join(c.root, "go.mod"))
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			c.mod = strings.TrimSpace(rest)
		}
	}
	return filepath.WalkDir(c.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != c.root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(c.root, filepath.Clean(dir))
		if err != nil {
			return err
		}
		ipath := c.mod
		if rel != "." {
			ipath += "/" + filepath.ToSlash(rel)
		}
		p := c.pkgs[ipath]
		if p == nil {
			p = &modPkg{path: ipath}
			c.pkgs[ipath] = p
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			p.files = append(p.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
		return nil
	})
}

// Import type-checks a module package's non-test files (once), and
// hands every other path to the standard library's importer.
func (c *callerCheck) Import(path string) (*types.Package, error) {
	p := c.pkgs[path]
	if p == nil {
		return c.std.Import(path)
	}
	if p.info == nil {
		p.info = newInfo()
		conf := types.Config{Importer: c}
		pkg, err := conf.Check(path, c.fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

// checkTests type-checks a package's test build. Type errors are
// tolerated: imports resolve to the non-test builds, so an external
// test package can see two copies of a type the go tool would unify,
// and every use is recorded regardless.
func (c *callerCheck) checkTests(path string, files []*ast.File) *types.Info {
	info := newInfo()
	conf := types.Config{Importer: c, Error: func(error) {}}
	conf.Check(path, c.fset, files, info)
	return info
}

func newInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

// candidates lists the package-level names a non-test package declares,
// each with the extent of its own declaration.
func (c *callerCheck) candidates(p *modPkg) []*candidate {
	var out []*candidate
	add := func(id *ast.Ident, from, to token.Pos) {
		if id.Name == "_" || id.Name == "init" || id.Name == "main" {
			return
		}
		obj := p.info.Defs[id]
		if obj == nil {
			return
		}
		name := p.pkg.Name() + "."
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Signature().Recv(); recv != nil {
				name += recvNamed(recv.Type()).Obj().Name() + "."
			}
		}
		pos := c.fset.Position(id.Pos())
		rel, _ := filepath.Rel(c.root, pos.Filename)
		out = append(out, &candidate{
			name: name + id.Name, where: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line),
			from: from, to: to, obj: obj,
		})
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Pos(), d.End())
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Pos(), s.End())
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s.Pos(), s.End())
						}
					}
				}
			}
		}
	}
	return out
}

// appendInterfaces adds every interface with methods that the package's
// code names, writes inline, takes as a parameter or result, or uses as
// a type-parameter constraint.
func appendInterfaces(ifaces []*types.Interface, info *types.Info) []*types.Interface {
	var add func(t types.Type)
	add = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Interface:
			if u.NumMethods() > 0 && !slices.Contains(ifaces, u) {
				ifaces = append(ifaces, u)
			}
		case *types.Signature:
			for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
				for v := range tuple.Variables() {
					add(v.Type())
				}
			}
		}
	}
	for _, tv := range info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	for _, obj := range info.Defs {
		if obj != nil {
			add(obj.Type())
		}
	}
	return ifaces
}

// exempt reports whether a name is outside both rules: a method named
// like a standard-library interface method, or one whose receiver
// implements an interface of the module's code that declares it.
func exempt(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return false
	}
	if stdMethodNames[fn.Name()] {
		return true
	}
	named := recvNamed(fn.Signature().Recv().Type())
	if named.TypeParams().Len() > 0 {
		return false // Implements is unspecified for uninstantiated types
	}
	for _, iface := range ifaces {
		for m := range iface.Methods() {
			if m.Name() == fn.Name() &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// origin maps a use of an instantiated generic func or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}
