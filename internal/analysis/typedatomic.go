package analysis

import (
	"go/ast"
	"go/types"
)

// typedAtomicRule forbids sync/atomic's package-level functions
// (atomic.AddUint64(&s.n, 1) and the rest) anywhere in the module. The
// typed atomics — atomic.Int64, atomic.Bool, atomic.Pointer[T] and
// friends — make both hazards of the function form unrepresentable: a
// typed field has no plain read or write to race with its atomic
// accesses, and atomic.Int64/Uint64 carry an align64 marker, so a
// 64-bit atomic can never sit at a 4-byte offset on 386/arm and fault.
// A use of the function as a value is reported like a call.
type typedAtomicRule struct{}

func (r *typedAtomicRule) Name() string { return "typedatomic" }

func (r *typedAtomicRule) Doc() string {
	return "forbid sync/atomic's package-level functions; typed atomics (atomic.Int64, atomic.Bool, " +
		"atomic.Pointer) cannot be read plainly and are always 8-byte aligned"
}

func (r *typedAtomicRule) Check(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
				fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(sel.Pos(),
					"atomic.%s on a plain variable; use a typed atomic (atomic.Int64, atomic.Bool, atomic.Pointer, ...)", fn.Name())
			}
			return true
		})
	}
}
