package repro

// The reachability check: every package-level name declared in a
// non-test file under internal/ has a caller, every exported one a
// caller outside its package, and every struct field a reader. It
// type-checks the module from source with the standard library alone
// (go/parser, go/types, and go/importer for the standard library's
// export data), so it needs no tool the module does not already have.
// DESIGN.md "Every name has a caller" gives the rules R1 (dead), R2
// (over-exported) and R3 (unread field) and their exemptions.

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
	"net.Client.Delete":      "the client half of msgDelete, which the server serves and the fuzz corpus covers",
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
	fails, n, err := checkCallers(".", callerAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fails {
		t.Error(f)
	}
	if len(fails) > 0 {
		t.Log("R1: delete the name (or move a test-only helper into a _test.go file); " +
			"R2: unexport it; R3: delete the field and what fills it; " +
			"or add it to callerAllowlist with the reason it stays")
	}
	t.Logf("exported identifiers under internal/: %d (types %d, funcs %d, methods %d, consts %d, vars %d, fields %d)",
		n.types+n.funcs+n.methods+n.consts+n.vars+n.fields, n.types, n.funcs, n.methods, n.consts, n.vars, n.fields)

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
		got, _, err := checkCallers(root, map[string]string{"a.Gone": "planted stale entry"})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			"R1 dead: a.TestOnly (internal/a/a.go:20)",
			"R1 dead: a.UnusedExported (internal/a/a.go:7)",
			"R1 dead: a.selfOnly (internal/a/a.go:9)",
			"R1 dead: a.unusedUnexported (internal/a/a.go:8)",
			"R2 over-exported: a.Hidden (internal/a/a.go:43)",
			"R2 over-exported: a.Limit (internal/a/a.go:30)",
			"R2 over-exported: a.T.Inner (internal/a/a.go:18)",
			"R2 over-exported: a.rec.Wide (internal/a/a.go:33)",
			"R3 unread: a.rec.log (internal/a/a.go:34)",
			"R3 unread: a.rec.probe (internal/a/a.go:35)",
			"stale allowlist entry: a.Gone (no rule flags it)",
		}
		if !slices.Equal(got, want) {
			t.Errorf("planted module:\n got %q\nwant %q", got, want)
		}
	})
}

// plantedModule holds one case per rule, plus the names an exemption
// must let through: Sq.Area satisfies an interface another package
// calls, G.Size a type-parameter constraint, rec.Note carries a struct
// tag, and Shape is the result of an exported func another package
// calls.
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

const Limit = 3

type rec struct {
	Wide  int
	log   []int
	probe int
	Note  string ` + "`json:\"note\"`" + `
}

type Shape struct{}

func NewShape() Shape { return Shape{} }

type Hidden int

func Fill(n int) int {
	r := rec{Wide: n, Note: "x"}
	r.log = []int{n}
	r.probe++
	return r.Wide + Limit + int(Hidden(n))
}
`,
	"internal/a/a_test.go": "package a\n\nfunc useTestOnly() { TestOnly() }\n\nfunc probeOf(r rec) int { return r.probe }\n",
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

var _ a.T

func Run() int {
	_ = a.NewShape()
	return total(a.Sq{}) + sizes([]a.G{{}}) + a.Used() + a.UseInner() + a.Fill(1)
}
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

// candidate is one package-level name or one untagged struct field
// under internal/.
type candidate struct {
	name     string    // pkg.[Recv.]Name, or pkg.Type.field
	where    string    // file:line, relative to the module root
	from, to token.Pos // the name's own declaration
	obj      types.Object
	live     bool // referenced (a field: read) from a non-test file outside its own declaration
	outside  bool // referenced from another package or an external test package
}

// exportCount is the number of exported identifiers under internal/,
// by kind; fields count every exported named field of every struct.
type exportCount struct{ types, funcs, methods, consts, vars, fields int }

type callerCheck struct {
	root, mod string
	fset      *token.FileSet
	pkgs      map[string]*modPkg
	std       types.Importer
}

// checkCallers applies R1, R2 and R3 to the module rooted at root and
// returns one line per failure, sorted, and the count of exported
// identifiers under internal/.
func checkCallers(root string, allow map[string]string) ([]string, exportCount, error) {
	var n exportCount
	c := &callerCheck{root: root, fset: token.NewFileSet(), pkgs: map[string]*modPkg{}, std: importer.Default()}
	if err := c.load(); err != nil {
		return nil, n, err
	}
	for _, p := range c.pkgs {
		if _, err := c.Import(p.path); err != nil {
			return nil, n, err
		}
	}

	cands := map[token.Pos]*candidate{}
	stores := map[*ast.Ident]bool{}
	var ifaces []*types.Interface
	for _, p := range c.pkgs {
		ifaces = appendInterfaces(ifaces, p.info)
		addStores(stores, p.files)
		if !strings.HasPrefix(p.path, c.mod+"/internal/") {
			continue
		}
		for _, cd := range c.candidates(p, &n) {
			cands[cd.obj.Pos()] = cd
		}
	}

	// Every use from every file of the module, tests included: the
	// non-test files as their packages build, each package's files with
	// its in-package tests, and each external test package. A type
	// in the type of an exported name another package uses is exposed:
	// that package already holds its values.
	exposed := map[token.Pos]bool{}
	record := func(info *types.Info, pkgPath string) {
		for id, obj := range info.Uses {
			obj = origin(obj)
			if obj.Pkg() == nil {
				continue
			}
			if _, ok := obj.(*types.TypeName); !ok && pkgPath != obj.Pkg().Path() && obj.Exported() {
				expose(exposed, obj.Type())
			}
			cd := cands[obj.Pos()]
			if cd == nil || cd.obj.Pkg().Path() != obj.Pkg().Path() || cd.obj.Name() != obj.Name() {
				continue
			}
			if !strings.HasSuffix(c.fset.Position(id.Pos()).Filename, "_test.go") &&
				(id.Pos() < cd.from || id.Pos() >= cd.to) && !(isField(obj) && stores[id]) {
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
		switch {
		case !cd.live && isField(cd.obj):
			rule = "R3 unread"
		case !cd.live:
			rule = "R1 dead"
		case cd.obj.Exported() && !cd.outside && !exposed[cd.obj.Pos()]:
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
	return fails, n, nil
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
// each with the extent of its own declaration, and the untagged named
// fields of every struct type it declares, package-level or local, and
// adds its exported identifiers to n.
func (c *callerCheck) candidates(p *modPkg, n *exportCount) []*candidate {
	var out []*candidate
	add := func(id *ast.Ident, owner string, from, to token.Pos) {
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
				owner = recvNamed(recv.Type()).Obj().Name()
			}
		}
		if owner != "" {
			name += owner + "."
		}
		pos := c.fset.Position(id.Pos())
		rel, _ := filepath.Rel(c.root, pos.Filename)
		out = append(out, &candidate{
			name: name + id.Name, where: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line),
			from: from, to: to, obj: obj,
		})
	}
	count := func(id *ast.Ident, k *int) {
		if id.IsExported() {
			*k++
		}
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name, "", d.Pos(), d.End())
				if d.Recv != nil {
					count(d.Name, &n.methods)
				} else {
					count(d.Name, &n.funcs)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "", s.Pos(), s.End())
						count(s.Name, &n.types)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, "", s.Pos(), s.End())
							if d.Tok == token.CONST {
								count(id, &n.consts)
							} else {
								count(id, &n.vars)
							}
						}
					}
				}
			}
		}
		var stack []ast.Node
		ast.Inspect(f, func(node ast.Node) bool {
			if node == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, node)
			st, ok := node.(*ast.StructType)
			if !ok {
				return true
			}
			owner := structOwner(stack)
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					count(id, &n.fields)
					if fl.Tag == nil {
						add(id, owner, id.Pos(), id.End())
					}
				}
			}
			return true
		})
	}
	return out
}

// structOwner names the struct type on top of the stack after the
// nearest type, var or func that declares it.
func structOwner(stack []ast.Node) string {
	for i := len(stack) - 2; i >= 0; i-- {
		switch d := stack[i].(type) {
		case *ast.TypeSpec:
			return d.Name.Name
		case *ast.ValueSpec:
			return d.Names[0].Name
		case *ast.FuncDecl:
			return d.Name.Name
		}
	}
	return ""
}

// addStores marks the field selectors the files only store to: the
// left side of = and op=, the operand of ++ and --, and the keys of
// composite literals.
func addStores(stores map[*ast.Ident]bool, files []*ast.File) {
	lhs := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			stores[s.Sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(node ast.Node) bool {
			switch s := node.(type) {
			case *ast.AssignStmt:
				if s.Tok != token.DEFINE {
					for _, e := range s.Lhs {
						lhs(e)
					}
				}
			case *ast.IncDecStmt:
				lhs(s.X)
			case *ast.CompositeLit:
				for _, e := range s.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							stores[id] = true
						}
					}
				}
			}
			return true
		})
	}
}

// expose marks every named type that a value of type t lets its holder
// name: t itself, and what its elements, fields, params and results
// are made of, but not the insides of a named type.
func expose(exposed map[token.Pos]bool, t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		exposed[t.Obj().Pos()] = true
		for a := range t.TypeArgs().Types() {
			expose(exposed, a)
		}
	case *types.Pointer:
		expose(exposed, t.Elem())
	case *types.Slice:
		expose(exposed, t.Elem())
	case *types.Array:
		expose(exposed, t.Elem())
	case *types.Chan:
		expose(exposed, t.Elem())
	case *types.Map:
		expose(exposed, t.Key())
		expose(exposed, t.Elem())
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for v := range tuple.Variables() {
				expose(exposed, v.Type())
			}
		}
		if r := t.Recv(); r != nil {
			expose(exposed, r.Type())
		}
	case *types.Struct:
		for f := range t.Fields() {
			expose(exposed, f.Type())
		}
	case *types.Interface:
		for m := range t.Methods() {
			expose(exposed, m.Type())
		}
	}
}

func isField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
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

// origin maps a use of an instantiated generic func, method or field
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
