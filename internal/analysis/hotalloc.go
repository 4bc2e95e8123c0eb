package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotAllocRule is the static twin of the module's runtime allocation
// tests (TestPipelineHotPathAllocs, TestGenerateAllocs): functions
// annotated //nslint:hotpath, and everything they transitively call
// inside the module, must contain no allocating constructs. The dynamic
// tests only catch a regression on the inputs they happen to drive; this
// rule refuses the construct at compile time, wherever it hides in the
// closure.
//
// Reported constructs: make, new, append (statically indistinguishable
// from a growing append — preallocated appends carry an allow with the
// capacity argument), map/slice composite literals and &T{} literals,
// func literals (closure allocation), go statements,
// non-constant string concatenation, string<->[]byte conversions (except
// the allocation-free string(b) forms: a map index, an operand of == or
// !=), boxing a non-pointer
// value into an interface, map writes (growth), and any call into fmt.
//
// The closure is pruned at //nslint:coldpath boundaries — per-window or
// setup functions that legitimately allocate — so the annotation set in
// the source is the exact audited contract.
type hotAllocRule struct {
	modulePath string
}

func (r *hotAllocRule) Name() string { return "hotalloc" }
func (r *hotAllocRule) Doc() string {
	return "functions reachable from a //nslint:hotpath root must not allocate: no make/new/append, map/slice/func literals, go statements, string building, interface boxing, map writes, or fmt calls"
}

// Check scans the closure entries declared in pass's package.
func (r *hotAllocRule) Check(pass *Pass) {
	for _, entry := range pass.Module.HotClosure() {
		if entry.Func.Pkg != pass.Pkg || entry.Func.Decl.Body == nil {
			continue
		}
		r.checkFunc(pass, entry)
	}
}

// checkFunc reports every allocating construct in one closure function.
func (r *hotAllocRule) checkFunc(pass *Pass, entry HotEntry) {
	info := pass.Pkg.Info
	fn := entry.Func
	where := "hot path " + fn.Obj.Name()
	if entry.Via != nil {
		where += " (reached from //nslint:hotpath root " + entry.Root.Obj.Name() + " via " + entry.Via.Obj.Name() + ")"
	} else {
		where += " (//nslint:hotpath root)"
	}

	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			r.checkCall(pass, info, v, where)
		case *ast.CompositeLit:
			switch info.Types[v].Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(v.Pos(), "%s: map literal allocates", where)
			case *types.Slice:
				pass.Reportf(v.Pos(), "%s: slice literal allocates", where)
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					pass.Reportf(v.Pos(), "%s: &composite literal escapes to the heap", where)
				}
			}
		case *ast.FuncLit:
			pass.Reportf(v.Pos(), "%s: func literal allocates a closure", where)
			return false // its body is not executed here
		case *ast.GoStmt:
			pass.Reportf(v.Pos(), "%s: go statement allocates a goroutine", where)
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isNonConstString(info, v) {
				pass.Reportf(v.Pos(), "%s: non-constant string concatenation allocates", where)
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if _, isMap := info.Types[ix.X].Type.Underlying().(*types.Map); isMap {
						pass.Reportf(ix.Pos(), "%s: map write may grow the table", where)
					}
				}
			}
			r.checkBoxing(pass, info, v, where)
		}
		return true
	})
}

// checkCall reports allocating call forms: make/new/append builtins,
// fmt calls, allocation-bearing conversions, and interface boxing of
// call arguments.
func (r *hotAllocRule) checkCall(pass *Pass, info *types.Info, call *ast.CallExpr, where string) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "%s: make allocates", where)
			case "new":
				pass.Reportf(call.Pos(), "%s: new allocates", where)
			case "append":
				pass.Reportf(call.Pos(), "%s: append may grow its backing array (allow with the preallocation argument if capacity is pinned)", where)
			}
			return
		}
	}
	// Conversions: string(b), []byte(s), []rune(s), string building.
	if conv, ok := conversionTo(info, call); ok {
		r.checkConversion(pass, info, call, conv, where)
		return
	}
	obj := calleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "%s: fmt.%s allocates and boxes its arguments", where, fn.Name())
		return
	}
	// Boxing concrete non-pointer-shaped arguments into interface params.
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		r.reportIfBoxes(pass, info, arg, pt, where)
	}
}

// checkConversion reports conversions that copy their operand.
func (r *hotAllocRule) checkConversion(pass *Pass, info *types.Info, call *ast.CallExpr, to types.Type, where string) {
	if len(call.Args) != 1 {
		return
	}
	from := info.Types[call.Args[0]].Type
	if from == nil {
		return
	}
	toStr := isString(to)
	fromStr := isString(from)
	toBytes := isByteSlice(to)
	fromBytes := isByteSlice(from)
	switch {
	case toStr && fromBytes:
		// string(b) used directly as a map index or compared with ==/!=
		// is read in place: the compiler's allocation-free idioms.
		if !isUncopiedOperand(pass, call) {
			pass.Reportf(call.Pos(), "%s: string(bytes) conversion copies (the free forms are an immediate map index and an operand of == or !=)", where)
		}
	case toBytes && fromStr:
		pass.Reportf(call.Pos(), "%s: []byte(string) conversion copies", where)
	}
}

// reportIfBoxes reports arg if passing it as parameter type pt wraps a
// concrete non-pointer-shaped value in an interface.
func (r *hotAllocRule) reportIfBoxes(pass *Pass, info *types.Info, arg ast.Expr, pt types.Type, where string) {
	if pt == nil || !types.IsInterface(pt) {
		return
	}
	if _, generic := pt.(*types.TypeParam); generic {
		return // a type argument is passed by value, not wrapped: the constraint is an interface, the parameter is not
	}
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil || tv.Value != nil { // constants are interned by the compiler
		return
	}
	at := tv.Type
	if types.IsInterface(at) || isPointerShaped(at) || isUntypedNil(at) {
		return
	}
	pass.Reportf(arg.Pos(), "%s: passing %s as interface %s boxes the value on the heap", where, at, pt)
}

// checkBoxing reports assignments of concrete non-pointer-shaped values
// to interface-typed destinations.
func (r *hotAllocRule) checkBoxing(pass *Pass, info *types.Info, as *ast.AssignStmt, where string) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := info.Types[lhs].Type
		if lt == nil && as.Tok == token.DEFINE {
			continue // declared type is the rhs type; no conversion
		}
		r.reportIfBoxes(pass, info, as.Rhs[i], lt, where)
	}
}

// conversionTo reports whether call is a type conversion, returning the
// destination type.
func conversionTo(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

// isUncopiedOperand reports whether call appears directly as the index
// of a map index expression (m[string(b)]) or as an operand of == or !=
// (string(a) == string(b)).
func isUncopiedOperand(pass *Pass, call *ast.CallExpr) bool {
	found := false
	for _, f := range pass.Pkg.Files {
		if !(f.FileStart <= call.Pos() && call.Pos() < f.FileEnd) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.IndexExpr:
				if ast.Unparen(v.Index) == ast.Expr(call) {
					if _, isMap := pass.Pkg.Info.Types[v.X].Type.Underlying().(*types.Map); isMap {
						found = true
					}
				}
			case *ast.BinaryExpr:
				if (v.Op == token.EQL || v.Op == token.NEQ) &&
					(ast.Unparen(v.X) == ast.Expr(call) || ast.Unparen(v.Y) == ast.Expr(call)) {
					found = true
				}
			}
			return true
		})
		break
	}
	return found
}

// isNonConstString reports whether e is a string-typed + whose result is
// not a compile-time constant.
func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isString(tv.Type) && tv.Value == nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// isPointerShaped reports whether values of t are stored directly in an
// interface word without a heap copy.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}
