package lint

import (
	"go/ast"
	"go/types"
)

// AtomicField enforces the shared-state contract behind bit-identical
// parallelism: a struct field that is ever accessed through sync/atomic
// (anywhere in the module) must be accessed through sync/atomic
// everywhere — a plain read or write of the elements of Engine.ubdeg or
// Engine.ubStamp while an Algorithm-5 round might be in flight is the
// exact data-race class the race-parallel tests exist to catch, except
// the analyzer catches it before the schedule does. Serial-phase plain
// access is legitimate and stays available through //khcore:atomic-ok
// with a reason stating why no fan-out can be observing the field.
//
// The analysis is module-wide and alias-aware one step deep: it tracks
// `ubdeg := e.ubdeg`-style local aliases of an atomic field and treats
// indexing through the alias as an access to the field. Slices passed
// as function parameters are deliberately NOT traced across calls — a
// parameter is the callee's contract, not the field's (powerPeelSerial
// takes ubdeg as a plain []int32 on purpose).
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: "forbid non-atomic access to struct fields that are accessed " +
		"via sync/atomic anywhere in the module",
	Run: runAtomicField,
}

// fieldKey names a struct field module-wide: pkgpath.Type.field.
func fieldKey(field *types.Var) string {
	if field.Pkg() == nil {
		return ""
	}
	// The field's owning named type isn't recoverable from the Var alone
	// portably; embed the position-independent parts we have. Fields are
	// matched by object identity within a package and by this key across
	// packages of the same load.
	return field.Pkg().Path() + "." + field.Name()
}

func runAtomicField(pass *Pass) error {
	// Pass 1 (module-wide): collect every field whose address is taken as
	// an argument to a sync/atomic function.
	atomicFields := map[*types.Var]bool{}
	atomicKeys := map[string]bool{}
	for _, pkg := range pass.Module {
		collectAtomicFields(pkg, atomicFields, atomicKeys)
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2 (current package): flag plain reads/writes of those fields,
	// including through one-step local aliases.
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkPlainAccess(pass, fn.Body, atomicFields, atomicKeys)
		}
	}
	return nil
}

// collectAtomicFields records fields reached by &x.f (or &alias[i] where
// alias := x.f) arguments of sync/atomic calls.
func collectAtomicFields(pkg *Package, fields map[*types.Var]bool, keys map[string]bool) {
	info := pkg.TypesInfo
	for _, file := range pkg.Files {
		// Aliases first: `ubdeg := e.ubdeg` makes &ubdeg[nb] an access to
		// e.ubdeg. Collected file-wide — object identity keeps distinct
		// functions' locals apart.
		fileAliases := map[types.Object]*types.Var{}
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok.String() != ":=" || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				f := fieldHeaderOf(info, rhs)
				if f == nil {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						fileAliases[obj] = f
					}
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || pkgPathOf(fn) != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok {
					continue
				}
				if field := fieldOfExpr(info, un.X, fileAliases); field != nil {
					fields[field] = true
					keys[fieldKey(field)] = true
				}
			}
			return true
		})
	}
}

// fieldOfExpr returns the struct field selected by e (possibly through
// indexing: x.f[i] selects f), or nil.
func fieldOfExpr(info *types.Info, e ast.Expr, aliases map[types.Object]*types.Var) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok {
					return v
				}
			}
			return nil
		case *ast.Ident:
			if aliases != nil {
				if obj := info.Uses[x]; obj != nil {
					return aliases[obj]
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// fieldHeaderOf matches only a bare selector of a field — x.f, not
// x.f[i] — the header-copy shape that makes a legitimate alias
// declaration. Element reads through an index must not match.
func fieldHeaderOf(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// checkPlainAccess reports non-atomic element reads/writes of atomic
// fields within one function, tracking `local := x.f` aliases.
func checkPlainAccess(pass *Pass, body *ast.BlockStmt, fields map[*types.Var]bool, keys map[string]bool) {
	info := pass.Pkg.TypesInfo
	aliases := buildAliases(info, body, fields, keys)

	isAtomicField := func(e ast.Expr) (*types.Var, bool) {
		f := fieldOfExpr(info, e, aliases)
		if f == nil {
			return nil, false
		}
		if fields[f] || keys[fieldKey(f)] {
			return f, true
		}
		return nil, false
	}

	// skip marks expressions consumed by sync/atomic calls or alias
	// declarations — legitimate appearances of the field.
	skip := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, x)
			if fn != nil && pkgPathOf(fn) == "sync/atomic" {
				for _, arg := range x.Args {
					markSkipTree(skip, arg)
				}
			}
			// len/cap are reads of the header, not the elements; the
			// fan-out only contends on elements.
			if isBuiltin(info, x, "len") || isBuiltin(info, x, "cap") {
				for _, arg := range x.Args {
					markSkipTree(skip, arg)
				}
			}
		case *ast.AssignStmt:
			if x.Tok.String() == ":=" {
				// Alias declarations themselves (ubdeg := e.ubdeg) copy the
				// header, not elements; ubdeg[v] on a RHS is still a read.
				for _, rhs := range x.Rhs {
					if f := fieldHeaderOf(info, rhs); f != nil && (fields[f] || keys[fieldKey(f)]) {
						markSkipTree(skip, rhs)
					}
				}
			}
		case *ast.RangeStmt:
			// `range x.f` reads the header; element access inside shows up
			// as the loop variable, which we cannot trace — ranging over an
			// atomic field's elements IS a plain read of every element.
			if f, ok := isAtomicField(x.X); ok {
				pass.Reportf("atomic", x.X.Pos(),
					"range over atomically-accessed field %s reads its elements non-atomically", f.Name())
				markSkipTree(skip, x.X)
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		idx, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if skip[idx] || skipCovers(skip, idx) {
			return true
		}
		f, ok := isAtomicField(idx.X)
		if !ok {
			return true
		}
		pass.Reportf("atomic", idx.Pos(),
			"non-atomic access to element of %s, which is accessed via sync/atomic elsewhere in the module", f.Name())
		return true
	})
}

// buildAliases maps local objects declared as `local := expr-selecting-
// an-atomic-field` to that field.
func buildAliases(info *types.Info, body *ast.BlockStmt, fields map[*types.Var]bool, keys map[string]bool) map[types.Object]*types.Var {
	aliases := map[types.Object]*types.Var{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok.String() != ":=" || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			f := fieldHeaderOf(info, rhs)
			if f == nil || !(fields[f] || keys[fieldKey(f)]) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					aliases[obj] = f
				}
			}
		}
		return true
	})
	return aliases
}

func markSkipTree(skip map[ast.Expr]bool, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if x, ok := n.(ast.Expr); ok {
			skip[x] = true
		}
		return true
	})
}

// skipCovers reports whether any marked expression lexically contains
// idx (ast.Inspect marked whole subtrees, so direct map hit suffices;
// kept for clarity at call sites).
func skipCovers(skip map[ast.Expr]bool, idx ast.Expr) bool {
	return skip[idx]
}
