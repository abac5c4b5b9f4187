package lint

import (
	"go/ast"
	"go/types"
	"path"
	"path/filepath"
	"strings"
)

// MarkerTestAPI is the doc-comment directive that keeps an exported
// declaration which only tests call. It must carry a reason:
// "//simdram:testapi reads a row without recording a command".
const MarkerTestAPI = "//simdram:testapi"

// TestOnly flags exported declarations under internal/ that no
// production code references. A package's possible importers are the
// tree rooted at the parent of its internal/ directory (Go's own
// visibility rule), so that tree is walked whole, nested modules such
// as bench/ included. Its packages outside internal/ (the root
// package, commands, examples, benchmarks) are production, and so is
// every package their non-test files reach by imports; a package only
// tests import is test code. A declaration counts as used when a
// non-test file of a production package names it or, for a type, has
// an expression of that type; a method also counts as used when its
// type implements an interface declared in the tree, or in a
// standard-library package the tree imports, that includes it.
// //simdram:testapi <reason> exempts a declaration; with no reason, or
// on a declaration production code uses, the directive is itself
// reported.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "flag exported internal declarations that only tests use",
	Run:  runTestOnly,
}

func runTestOnly(p *Pass) error {
	root, ok := internalRoot(p.Pkg.Path())
	if !ok || p.loader == nil {
		return nil
	}
	ix, err := p.loader.usage(root)
	if err != nil {
		return err
	}
	if !ix.prod[p.Pkg.Path()] {
		return nil // a test-only package is test code as a whole
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkTestOnly(p, ix, d.Name, d.Doc)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						checkTestOnly(p, ix, s.Name, specDoc(d, s.Doc))
					case *ast.ValueSpec:
						for _, name := range s.Names {
							checkTestOnly(p, ix, name, specDoc(d, s.Doc))
						}
					}
				}
			}
		}
	}
	return nil
}

// specDoc is a spec's own doc comment, or its declaration's when the
// declaration holds that one spec.
func specDoc(d *ast.GenDecl, doc *ast.CommentGroup) *ast.CommentGroup {
	if doc == nil && !d.Lparen.IsValid() {
		return d.Doc
	}
	return doc
}

func checkTestOnly(p *Pass, ix *usageIndex, name *ast.Ident, doc *ast.CommentGroup) {
	if !name.IsExported() {
		return
	}
	obj := p.Info.Defs[name]
	if obj == nil {
		return
	}
	used := ix.isUsed(obj)
	if reason, ok := testAPIMarker(doc); ok {
		switch {
		case reason == "":
			p.Report(name.Pos(), "%s on %s needs a reason", MarkerTestAPI, name.Name)
		case used:
			p.Report(name.Pos(), "%s on %s, which production code uses", MarkerTestAPI, name.Name)
		}
		return
	}
	if !used {
		p.Report(name.Pos(), "%s is exported but only tests use it (delete it, move it to a _test.go file, or mark it %s <reason>)", name.Name, MarkerTestAPI)
	}
}

// testAPIMarker reports whether a doc comment carries the
// //simdram:testapi directive, and its reason.
func testAPIMarker(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), MarkerTestAPI)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// internalRoot returns the import path of the tree allowed to import
// the package: the parent of its last internal element.
func internalRoot(pkgPath string) (string, bool) {
	elems := strings.Split(pkgPath, "/")
	for i := len(elems) - 1; i > 0; i-- {
		if elems[i] == "internal" {
			return path.Join(elems[:i]...), true
		}
	}
	return "", false
}

// usageIndex is what production code in one tree references.
type usageIndex struct {
	prod   map[string]bool       // production package paths
	used   map[types.Object]bool // objects a production file names
	typed  map[types.Object]bool // type names a production expression has
	ifaces []*types.Interface    // interfaces a method may implement
}

func (ix *usageIndex) isUsed(obj types.Object) bool {
	if ix.used[obj] || ix.typed[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	for _, iface := range ix.ifaces {
		if m, _, _ := types.LookupFieldOrMethod(iface, false, fn.Pkg(), fn.Name()); m == nil {
			continue
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// usage builds, once per tree, the index of what its production code
// references.
func (l *Loader) usage(root string) (*usageIndex, error) {
	if ix, ok := l.usages[root]; ok {
		return ix, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(root, l.modPath), "/")
	dirs, err := PackageDirs(filepath.Join(l.modRoot, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	pkgs := map[string]*Package{}
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if IsNoGo(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		pkgs[pkg.Path] = pkg
	}
	ix := &usageIndex{
		prod:  map[string]bool{},
		used:  map[types.Object]bool{},
		typed: map[types.Object]bool{},
	}
	var queue []string
	for p := range pkgs {
		if !strings.Contains(strings.TrimPrefix(p, root)+"/", "/internal/") {
			queue = append(queue, p)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if ix.prod[p] || pkgs[p] == nil {
			continue
		}
		ix.prod[p] = true
		for _, imp := range pkgs[p].Types.Imports() {
			queue = append(queue, imp.Path())
		}
	}
	std := map[*types.Package]bool{}
	for p, pkg := range pkgs {
		ix.ifaces = appendInterfaces(ix.ifaces, pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			if !strings.HasPrefix(imp.Path()+"/", l.modPath+"/") && !std[imp] {
				std[imp] = true
				ix.ifaces = appendInterfaces(ix.ifaces, imp)
			}
		}
		if ix.prod[p] {
			ix.record(pkg)
		}
	}
	ix.ifaces = append(ix.ifaces, implicitInterfaces()...)
	l.usages[root] = ix
	return ix, nil
}

// implicitInterfaces are the interfaces a method satisfies with no
// named interface in sight: error, and the unnamed ones package errors
// asserts (Unwrap, Is, As).
func implicitInterfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	method := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, name, sig)}, nil).Complete()
	}
	one := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewParam(0, nil, "", t)) }
	return []*types.Interface{
		errType.Underlying().(*types.Interface),
		method("Unwrap", nil, one(errType)),
		method("Unwrap", nil, one(types.NewSlice(errType))),
		method("Is", one(errType), one(types.Typ[types.Bool])),
		method("As", one(types.Universe.Lookup("any").Type()), one(types.Typ[types.Bool])),
	}
}

// appendInterfaces adds a package's named, non-generic interfaces.
func appendInterfaces(out []*types.Interface, pkg *types.Package) []*types.Interface {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() != nil {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			out = append(out, iface)
		}
	}
	return out
}

// record adds one production package's references: every object its
// files name, except a function naming itself, and every named type
// one of its expressions has.
func (ix *usageIndex) record(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = pkg.Info.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := origin(pkg.Info.Uses[id]); obj != nil && obj != self {
						ix.used[obj] = true
					}
				}
				return true
			})
		}
	}
	for _, tv := range pkg.Info.Types {
		ix.markType(tv.Type)
	}
}

// markType marks the named types an expression's type is built from.
func (ix *usageIndex) markType(t types.Type) {
	for t != nil {
		switch u := types.Unalias(t).(type) {
		case *types.Named:
			ix.typed[u.Origin().Obj()] = true
			return
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Map:
			ix.markType(u.Key())
			t = u.Elem()
		default:
			return
		}
	}
}

// origin maps an instantiated generic function, method or field back
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
