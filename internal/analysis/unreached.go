package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"sync"
)

// unreachedRule reports package-level declarations that nothing the
// module ships can reach. The roots are what runs or is importable:
// every main and init function, every package-level initialiser, and
// every exported name of a public package (one outside internal/ and
// cmd/ that is not a main — here the root facade) together with the
// exported methods of the module types its signatures, aliases and
// exported fields expose. From there a declaration is reached when the
// syntax of a reached declaration mentions it (types.Info.Uses, so a
// function taken as a value counts like one that is called), and a
// method is also reached when its receiver type is and some interface
// the type satisfies declares it — a reached module interface, an
// inline one, one exported by an imported package, or the unexported
// ones errors.Is/As/Unwrap probe. Test files are not loaded, so a
// declaration only tests use is reported: it moves beside its test, is
// deleted, or carries an allow with the reason it is kept.
//
// The rule is a Collector and stays silent unless the load covers every
// package of the module: on a partial load the missing importers would
// make live code look dead. A package in which nothing is reached is
// reported once, at its package clause.
type unreachedRule struct {
	modulePath string

	pkgs   map[string]*Package
	decls  map[types.Object]*declNode
	order  []*declNode        // collection order, for a deterministic solve
	inits  []types.Object     // objects package-level initialisers mention
	inline []*types.Interface // interface literals outside type declarations

	solve sync.Once
	dead  map[*Package][]*declNode
}

// declNode is one package-level declaration or method.
type declNode struct {
	obj  types.Object
	pkg  *Package
	pos  token.Pos
	uses []types.Object
	live bool
}

func (r *unreachedRule) Name() string { return "unreached" }
func (r *unreachedRule) Doc() string {
	return "a declaration no main, init, package-level initialiser or exported facade name can reach serves no traffic; delete it, move it beside the test that needs it, or allow it with the reason it is kept"
}

// Collect records pkg's declarations and what each one mentions.
func (r *unreachedRule) Collect(pass *Pass) {
	if r.pkgs == nil {
		r.pkgs = make(map[string]*Package)
		r.decls = make(map[types.Object]*declNode)
	}
	pkg := pass.Pkg
	r.pkgs[pkg.Path] = pkg
	named := make(map[*ast.InterfaceType]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				r.add(pkg, d.Name, r.mentions(pkg, d))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							named[it] = true
						}
						r.add(pkg, s.Name, r.mentions(pkg, s))
					case *ast.ValueSpec:
						if d.Tok != token.VAR {
							continue // constants compile to nothing
						}
						uses := r.mentions(pkg, s)
						if len(s.Values) > 0 {
							r.inits = append(r.inits, uses...)
						}
						for _, name := range s.Names {
							r.add(pkg, name, uses)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok || named[it] {
				return true
			}
			if iface, ok := pkg.Info.Types[it].Type.(*types.Interface); ok && iface.NumMethods() > 0 {
				r.inline = append(r.inline, iface)
			}
			return true
		})
	}
}

// add registers the declaration introduced by name.
func (r *unreachedRule) add(pkg *Package, name *ast.Ident, uses []types.Object) {
	obj := pkg.Info.Defs[name]
	if obj == nil || name.Name == "_" {
		return
	}
	d := &declNode{obj: obj, pkg: pkg, pos: name.Pos(), uses: uses}
	r.decls[obj] = d
	r.order = append(r.order, d)
}

// mentions lists the module objects the syntax under n refers to.
// Instantiated generic functions and methods are folded onto their
// declaration.
func (r *unreachedRule) mentions(pkg *Package, n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil || !isModulePkg(r.modulePath, obj.Pkg()) {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = origin(fn)
		}
		out = append(out, obj)
		return true
	})
	return out
}

// Check reports pkg's unreached declarations.
func (r *unreachedRule) Check(pass *Pass) {
	r.solve.Do(r.reach)
	pkg := pass.Pkg
	dead := r.dead[pkg]
	if len(dead) == 0 {
		return
	}
	total := 0
	for _, d := range r.order {
		if d.pkg == pkg {
			total++
		}
	}
	if len(dead) == total {
		pass.Reportf(pkg.Files[0].Name.Pos(), "package %s: nothing the module ships reaches any of its %d declarations", pkg.Types.Name(), total)
		return
	}
	methods := make(map[*declNode]int) // dead type -> its methods, reported with it
	for _, d := range dead {
		if t := r.receiverDecl(d); t != nil && !t.live {
			methods[t]++
		}
	}
	for _, d := range dead {
		if t := r.receiverDecl(d); t != nil && !t.live {
			continue
		}
		what := r.describe(d)
		if n := methods[d]; n > 0 {
			what = fmt.Sprintf("%s (and its %d methods)", what, n)
		}
		pass.Reportf(d.pos, "%s is reached by no main, init, package-level initialiser or exported facade name", what)
	}
}

// receiverDecl returns the declaration of the type a method is declared
// on, nil for anything but a method.
func (r *unreachedRule) receiverDecl(d *declNode) *declNode {
	fn, ok := d.obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return r.decls[n.Obj()]
	}
	return nil
}

// reach solves liveness over everything collected, or leaves dead empty
// when the load is partial.
func (r *unreachedRule) reach() {
	if !r.coversModule() {
		return
	}
	var queue []*declNode
	live := 0
	mark := func(obj types.Object) {
		if d := r.decls[obj]; d != nil && !d.live {
			d.live = true
			live++
			queue = append(queue, d)
		}
	}
	drain := func() {
		for len(queue) > 0 {
			d := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range d.uses {
				mark(u)
			}
		}
	}

	for _, obj := range r.inits {
		mark(obj)
	}
	surface := &apiSurface{modulePath: r.modulePath, mark: mark, seen: make(map[*types.Named]bool)}
	for _, d := range r.order {
		fn, isFunc := d.obj.(*types.Func)
		switch {
		case isFunc && fn.Type().(*types.Signature).Recv() == nil &&
			(fn.Name() == "init" || fn.Name() == "main" && d.pkg.Types.Name() == "main"):
			mark(d.obj)
		case isPublicPkg(r.modulePath, d.pkg) && d.obj.Exported() && d.obj.Parent() == d.pkg.Types.Scope():
			mark(d.obj)
			surface.walk(d.obj.Type())
		}
	}

	std := r.importedInterfaces()
	for before := -1; before != live; {
		before = live
		drain()
		ifaces := append([]*types.Interface(nil), std...)
		ifaces = append(ifaces, r.inline...)
		var concrete []*types.Named
		for _, d := range r.order {
			tn, ok := d.obj.(*types.TypeName)
			if !ok || !d.live || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := n.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, iface)
			} else {
				concrete = append(concrete, n)
			}
		}
		for _, n := range concrete {
			ptr := types.NewPointer(n)
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); errorsProbes[m.Name()] {
					mark(origin(m))
				}
			}
			for _, iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					im := iface.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name())
					if m, ok := obj.(*types.Func); ok {
						mark(origin(m))
					}
				}
			}
		}
		drain()
	}

	r.dead = make(map[*Package][]*declNode)
	for _, d := range r.order {
		if !d.live {
			r.dead[d.pkg] = append(r.dead[d.pkg], d)
		}
	}
}

// errorsProbes are the methods package errors looks up through
// unexported interfaces no import exposes.
var errorsProbes = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// coversModule reports whether every package the module's directory
// tree holds was collected.
func (r *unreachedRule) coversModule() bool {
	for path, pkg := range r.pkgs {
		rel, ok := strings.CutPrefix(path, r.modulePath)
		if !ok {
			continue
		}
		root, ok := strings.CutSuffix(filepath.ToSlash(pkg.Dir), rel)
		if !ok {
			continue
		}
		all, err := (&Loader{ModuleRoot: filepath.FromSlash(root), ModulePath: r.modulePath}).modulePackageDirs()
		if err != nil {
			return false
		}
		for p := range all {
			if r.pkgs[p] == nil {
				return false
			}
		}
		return true
	}
	return false
}

// importedInterfaces lists the method-bearing interfaces exported by
// the non-module packages the module imports, plus error.
func (r *unreachedRule) importedInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	for _, pkg := range r.pkgs {
		for _, imp := range pkg.Types.Imports() {
			if seen[imp] || isModulePkg(r.modulePath, imp) {
				continue
			}
			seen[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					out = append(out, iface)
				}
			}
		}
	}
	return out
}

// isPublicPkg reports whether code outside the module can import pkg.
func isPublicPkg(modulePath string, pkg *Package) bool {
	return pkg.Types.Name() != "main" && !inEnforcedTree(modulePath, pkg.Path)
}

// apiSurface walks the types a public name exposes and marks the
// exported methods an importer could call on them.
type apiSurface struct {
	modulePath string
	mark       func(types.Object)
	seen       map[*types.Named]bool
}

func (s *apiSurface) walk(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if s.seen[t] {
			return
		}
		s.seen[t] = true
		if targs := t.TypeArgs(); targs != nil {
			for i := 0; i < targs.Len(); i++ {
				s.walk(targs.At(i))
			}
		}
		if !isModulePkg(s.modulePath, t.Obj().Pkg()) {
			return
		}
		s.mark(t.Obj())
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				s.mark(origin(m))
				s.walk(m.Type())
			}
		}
		s.walk(t.Underlying())
	case *types.Map:
		s.walk(t.Key())
		s.walk(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		s.walk(t.Elem())
	case *types.Signature:
		s.walk(t.Params())
		s.walk(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			s.walk(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				s.walk(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			s.walk(t.Method(i).Type())
		}
	}
}

// describe names a declaration the way a reader would look it up.
func (r *unreachedRule) describe(d *declNode) string {
	switch d.obj.(type) {
	case *types.Func:
		if t := r.receiverDecl(d); t != nil {
			return "method " + t.obj.Name() + "." + d.obj.Name()
		}
		return "func " + d.obj.Name()
	case *types.TypeName:
		return "type " + d.obj.Name()
	}
	return "var " + d.obj.Name()
}
