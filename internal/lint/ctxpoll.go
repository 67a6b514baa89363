package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPoll enforces the cancellation contract from the serving API work:
// inside a *Ctx entry point or a function marked //khcore:peel, every
// loop that performs traversal work (calls into internal/hbfs, directly
// or through same-package helpers) must reach a cancellation poll —
// cancelState.stop(), ctx.Err()/ctx.Done(), a stored cancel-func field,
// or a call that itself forwards the context. Loops that only shuffle
// counters or buffers are exempt: the invariant bounds the time between
// polls by one traversal batch, not by every iteration of every loop.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc: "require every traversal-working loop inside a *Ctx or " +
		"//khcore:peel function to reach a cancellation poll",
	Run: runCtxPoll,
}

// hbfsAccountingFuncs are internal/hbfs functions that do O(1) (or
// teardown-only) work; calling them does not make a loop a traversal
// loop.
var hbfsAccountingFuncs = map[string]bool{
	"Visits": true, "ResetVisits": true, "AddVisits": true, "Reset": true,
	"Workers": true, "Traversal": true, "SetCancel": true,
	"Expansions": true, "Truncations": true, "Close": true, "NewPool": true,
	"NewTraversal": true, "ForVertex": true,
}

func runCtxPoll(pass *Pass) error {
	works := buildWorkCallers(pass)
	polls := buildPollers(pass)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			_, marked := pass.Ann.funcMarker(fn, markerPeel)
			if !marked && !isCtxEntryPoint(pass.Pkg.TypesInfo, fn) {
				continue
			}
			checkLoops(pass, fn.Body, works, polls)
		}
	}
	return nil
}

// isCtxEntryPoint reports whether fn is a *Ctx-suffixed function taking
// a context.Context — the serving API naming convention.
func isCtxEntryPoint(info *types.Info, fn *ast.FuncDecl) bool {
	if !strings.HasSuffix(fn.Name.Name, "Ctx") {
		return false
	}
	if fn.Type.Params == nil {
		return false
	}
	for _, f := range fn.Type.Params.List {
		if tv, ok := info.Types[f.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkLoops reports every loop in body that performs traversal work but
// contains no poll. Nested loops are judged independently: an outer loop
// that polls per iteration covers inner loops only if the inner loop
// itself reaches a poll (the inner loop is where iterations accumulate).
// An inner loop containing a poll also satisfies its enclosing loops,
// since the poll runs on the enclosing iteration's path.
func checkLoops(pass *Pass, body *ast.BlockStmt, works, polls map[*types.Func]bool) {
	info := pass.Pkg.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch x := n.(type) {
		case *ast.ForStmt:
			loopBody = x.Body
		case *ast.RangeStmt:
			loopBody = x.Body
		case *ast.FuncLit:
			return false // separate function; judged via its own marker
		default:
			return true
		}
		if loopDoesWork(info, loopBody, works) && !loopReachesPoll(info, loopBody, polls) {
			pass.Reportf("poll", n.Pos(),
				"traversal loop without a cancellation poll (call cancelState.stop, ctx.Err, or a *Ctx helper each batch)")
		}
		return true
	})
}

func loopDoesWork(info *types.Info, body *ast.BlockStmt, works map[*types.Func]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callIsWork(info, call, works) {
			found = true
			return false
		}
		return true
	})
	return found
}

func callIsWork(info *types.Info, call *ast.CallExpr, works map[*types.Func]bool) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if isHbfsWorkFunc(fn) {
		return true
	}
	return works[fn]
}

func isHbfsWorkFunc(fn *types.Func) bool {
	if !strings.HasSuffix(pkgPathOf(fn), "internal/hbfs") {
		return false
	}
	return !hbfsAccountingFuncs[fn.Name()]
}

func loopReachesPoll(info *types.Info, body *ast.BlockStmt, polls map[*types.Func]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callIsPoll(info, call, polls) {
			found = true
			return false
		}
		return true
	})
	return found
}

// callIsPoll recognizes the module's polling idioms:
//   - cancelState.stop() — the amortized mask-checked poll
//   - ctx.Err() / ctx.Done() on a context.Context
//   - calling a func-typed field or variable whose name starts with
//     "cancel" (the pool's injected cancelFn)
//   - any *Ctx-suffixed callee (it polls internally by this analyzer's
//     own contract)
//   - a same-package function that itself reaches a poll (fixpoint)
func callIsPoll(info *types.Info, call *ast.CallExpr, polls map[*types.Func]bool) bool {
	if fn := calleeFunc(info, call); fn != nil {
		if fn.Name() == "stop" && namedTypeName(recvType(fn)) == "cancelState" {
			return true
		}
		if fn.Name() == "Err" || fn.Name() == "Done" {
			if recv := recvType(fn); recv != nil && isContextType(recv) {
				return true
			}
			// Interface method via Selections: check the receiver expr type.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if tv, ok := info.Types[sel.X]; ok && isContextType(tv.Type) {
					return true
				}
			}
		}
		if strings.HasSuffix(fn.Name(), "Ctx") {
			return true
		}
		return polls[fn]
	}
	// Func-typed value call: s.cancelFn(), cancel().
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return strings.HasPrefix(fun.Sel.Name, "cancel")
	case *ast.Ident:
		return strings.HasPrefix(fun.Name, "cancel")
	}
	return false
}

func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// buildWorkCallers computes, to a same-package fixpoint, the functions
// that transitively call into internal/hbfs traversal work. A loop whose
// body calls such a function is a traversal loop even though the hbfs
// call is one frame down (e.g. hdegCappedBatch).
func buildWorkCallers(pass *Pass) map[*types.Func]bool {
	return packageFixpoint(pass, func(info *types.Info, call *ast.CallExpr, set map[*types.Func]bool) bool {
		return callIsWork(info, call, set)
	})
}

// buildPollers computes, to a same-package fixpoint, the functions whose
// body unconditionally contains a polling call at the top level of some
// statement — so a helper like hdegCappedBatch that polls internally
// counts as a poll at its call sites.
func buildPollers(pass *Pass) map[*types.Func]bool {
	return packageFixpoint(pass, func(info *types.Info, call *ast.CallExpr, set map[*types.Func]bool) bool {
		return callIsPoll(info, call, set)
	})
}

// packageFixpoint marks every package function whose body contains a
// call satisfying pred, iterating until no new functions are marked so
// indirection through same-package helpers is followed transitively.
func packageFixpoint(pass *Pass, pred func(*types.Info, *ast.CallExpr, map[*types.Func]bool) bool) map[*types.Func]bool {
	info := pass.Pkg.TypesInfo
	type fnBody struct {
		obj  *types.Func
		body *ast.BlockStmt
	}
	var fns []fnBody
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, fnBody{obj, fd.Body})
		}
	}
	set := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if set[f.obj] {
				continue
			}
			hit := false
			ast.Inspect(f.body, func(n ast.Node) bool {
				if hit {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pred(info, call, set) {
					hit = true
					return false
				}
				return true
			})
			if hit {
				set[f.obj] = true
				changed = true
			}
		}
	}
	return set
}
