package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DefaultRules returns the full netsample rule set for a module rooted
// at modulePath (the module directive of go.mod, "netsample" here):
// five determinism rules, four concurrency/hot-path rules, the
// one-file confinement of unsafe, and whole-module reachability.
// Rule instances carry per-run state (collected facts), so callers must
// take a fresh set for every Run.
func DefaultRules(modulePath string) []Rule {
	return []Rule{
		&noRandRule{modulePath},
		&noClockRule{modulePath},
		&rngShareRule{modulePath},
		&floatEqRule{},
		&errDropRule{modulePath},
		&typedAtomicRule{},
		&hotAllocRule{modulePath: modulePath},
		&waitStallRule{modulePath: modulePath},
		&mutexHoldRule{modulePath: modulePath},
		&noUnsafeRule{modulePath},
		&unreachedRule{modulePath: modulePath},
	}
}

// inEnforcedTree reports whether pkgPath sits under the module's
// internal/ or cmd/ trees, where the determinism rules are mandatory.
// The facade and examples are exempt: they demonstrate the public API
// and may use wall-clock time.
func inEnforcedTree(modulePath, pkgPath string) bool {
	for _, sub := range []string{"/internal", "/cmd"} {
		p := modulePath + sub
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// calleeObject resolves the object a call expression invokes, unwrapping
// parentheses and generic instantiations. It returns nil for calls whose
// callee is not a named object (e.g. an immediately invoked func literal).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isModulePkg reports whether pkg belongs to the module (or one of its
// subpackages).
func isModulePkg(modulePath string, pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == modulePath || strings.HasPrefix(p, modulePath+"/")
}

// isDistRNGPtr reports whether t is *dist.RNG for the module's
// internal/dist package.
func isDistRNGPtr(modulePath string, t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RNG" && obj.Pkg() != nil &&
		obj.Pkg().Path() == modulePath+"/internal/dist"
}
