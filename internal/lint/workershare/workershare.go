// Package workershare statically enforces the sweep contract that
// makes byte-identical parallel output possible: worker goroutines
// communicate only through commit-by-job-index slots, never through
// arbitrarily-interleaved writes to shared state. The analyzer builds
// the goroutine-spawn graph — `go` statements plus the closure
// argument of the sweep executor entry point (sweep.Map, whose job
// function runs concurrently) — computes which variables each worker closure captures or reaches
// transitively (package-level variables included), and flags writes to
// that shared state.
//
// A write is legal when it is one of the disciplined forms:
//
//   - a commit-by-job-index store, s[i] = v, where s is a captured
//     slice and i is worker-local (the job-index parameter, a local,
//     or a per-iteration variable of a loop enclosing the spawn —
//     distinct workers write distinct elements);
//   - a sync/atomic operation (method calls on atomic.* types and
//     atomic.Store/Add/... calls never appear as plain assignments, so
//     they pass untouched);
//   - mutex-guarded: the write is preceded in the worker body by more
//     sync Lock/RLock calls than non-deferred Unlocks (deferred
//     unlocks release at exit, so they do not end the critical
//     section mid-body);
//   - channel operations (sends block and order explicitly; the merge
//     discipline for channel results is the runtime parity tests'
//     business, not unsynchronized memory).
//
// Everything else — appending to a captured slice (the classic
// arrival-order bug), storing through a captured scalar or cursor,
// writing a captured map, mutating package-level state directly or
// through a same-program call chain — is exactly the class of bug the
// `-race`+`-j1`/`-jN` parity discipline exists to catch, surfaced at
// compile time. The call-graph reach spans every package of the run.
package workershare

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fpcache/internal/lint"
)

// Analyzer is the shared-state write check for worker goroutines.
var Analyzer = &lint.Analyzer{
	Name: "workershare",
	Doc: "flags writes to shared state from goroutines spawned by `go` or the sweep " +
		"executor unless committed by job index, atomic, or mutex-guarded",
	Run: run,
}

// sweepEntryPoints are the executor functions whose final closure
// argument runs concurrently on the worker pool.
var sweepEntryPoints = map[string]bool{"Map": true}

// maxReachDepth bounds the transitive search for package-level writes
// reached through calls from a worker body.
const maxReachDepth = 4

func run(pass *lint.Pass) error {
	w := &walker{pass: pass, summaries: map[*types.Func]*writeSummary{}}
	for _, file := range pass.Files {
		lint.WithStack(file, func(stack []ast.Node) bool {
			n := stack[len(stack)-1]
			switch n := n.(type) {
			case *ast.GoStmt:
				w.checkSpawn(n.Call, stack, "goroutine spawned here")
			case *ast.CallExpr:
				if isSweepEntry(pass.Info, n) && len(n.Args) > 0 {
					w.checkSpawn(n, stack, "sweep worker closure")
				}
			}
			return true
		})
	}
	return nil
}

// isSweepEntry matches calls to the sweep executor entry points, both
// qualified (sweep.Map) and package-internal (Map inside
// internal/sweep itself).
func isSweepEntry(info *types.Info, call *ast.CallExpr) bool {
	fn := lint.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !sweepEntryPoints[fn.Name()] {
		return false
	}
	return strings.HasSuffix(fn.Pkg().Path(), "internal/sweep")
}

type walker struct {
	pass      *lint.Pass
	summaries map[*types.Func]*writeSummary
}

// checkSpawn analyzes one spawn site: a `go f(...)` statement or a
// sweep executor call. For `go` statements the spawned callee is the
// worker; for executor calls it is the final function-typed argument
// (the job).
func (w *walker) checkSpawn(call *ast.CallExpr, stack []ast.Node, what string) {
	var workerExpr ast.Expr
	if _, ok := stack[len(stack)-1].(*ast.GoStmt); ok {
		workerExpr = call.Fun
	} else {
		workerExpr = call.Args[len(call.Args)-1]
		if t := w.pass.Info.TypeOf(workerExpr); t == nil {
			return
		} else if _, ok := t.Underlying().(*types.Signature); !ok {
			return
		}
	}
	lit := w.resolveLit(workerExpr, stack)
	if lit != nil {
		w.checkWorkerLit(lit, stack, what)
		return
	}
	// A named function spawned directly: it captures nothing, but may
	// still reach package-level state.
	if fn := lint.CalleeFunc(w.pass.Info, call); fn != nil {
		w.checkReach(call.Pos(), fn, what)
	}
}

// resolveLit finds the function literal a worker expression denotes:
// the literal itself, or — for the common `job := func(...){...};
// sweep.Map(..., job)` shape — the single literal assigned to the
// identifier within the enclosing function.
func (w *walker) resolveLit(e ast.Expr, stack []ast.Node) *ast.FuncLit {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return e
	case *ast.Ident:
		obj := w.pass.Info.Uses[e]
		if obj == nil {
			return nil
		}
		encl := enclosingFunc(stack)
		if encl == nil {
			return nil
		}
		var lit *ast.FuncLit
		assigns := 0
		ast.Inspect(encl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(n.Rhs) {
						continue
					}
					if w.pass.Info.Defs[id] == obj || w.pass.Info.Uses[id] == obj {
						assigns++
						if fl, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
							lit = fl
						}
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if w.pass.Info.Defs[id] == obj && i < len(n.Values) {
						assigns++
						if fl, ok := ast.Unparen(n.Values[i]).(*ast.FuncLit); ok {
							lit = fl
						}
					}
				}
			}
			return true
		})
		// Only trust a unique literal binding; a reassigned variable
		// could be any of them.
		if assigns == 1 {
			return lit
		}
	}
	return nil
}

// enclosingFunc returns the innermost function node (declaration or
// literal) on the ancestor stack, nil at package level.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return n
		case *ast.FuncDecl:
			return n
		}
	}
	return nil
}

// checkWorkerLit flags shared-state writes in one worker closure.
func (w *walker) checkWorkerLit(lit *ast.FuncLit, stack []ast.Node, what string) {
	info := w.pass.Info
	iterVars := iterationVars(info, stack)
	guard := newGuardIndex(info, lit.Body)

	workerLocal := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
	}
	// indexIsLocal reports whether every identifier in an index
	// expression is worker-local or a per-iteration variable of a loop
	// enclosing the spawn — the two shapes that give distinct workers
	// distinct elements.
	indexIsLocal := func(idx ast.Expr) bool {
		ok := true
		ast.Inspect(idx, func(n ast.Node) bool {
			id, isIdent := n.(*ast.Ident)
			if !isIdent {
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				return true
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return true
			}
			if !workerLocal(obj) && !iterVars[obj] {
				ok = false
			}
			return ok
		})
		return ok
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				w.checkWrite(lhs, n.Pos(), lit, workerLocal, indexIsLocal, guard, what)
			}
		case *ast.IncDecStmt:
			w.checkWrite(n.X, n.Pos(), lit, workerLocal, indexIsLocal, guard, what)
		case *ast.CallExpr:
			if fn := lint.CalleeFunc(info, n); fn != nil {
				w.checkReachGuarded(n.Pos(), fn, guard, what)
			}
		}
		return true
	})
}

// checkWrite classifies one assignment target inside a worker body.
func (w *walker) checkWrite(lhs ast.Expr, pos token.Pos, lit *ast.FuncLit,
	workerLocal func(types.Object) bool, indexIsLocal func(ast.Expr) bool,
	guard *guardIndex, what string) {
	info := w.pass.Info
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok || workerLocal(v) {
			return
		}
		if guard.guarded(pos) {
			return
		}
		where := "captured"
		if isPackageLevel(v) {
			where = "package-level"
		}
		w.pass.Reportf(pos,
			"worker writes %s variable %s (%s); concurrent workers interleave this write "+
				"nondeterministically — commit through an index-owned slot, an atomic, or a mutex", where, v.Name(), what)
	case *ast.IndexExpr:
		root := rootIdentObj(info, x.X)
		rv, ok := root.(*types.Var)
		if !ok || workerLocal(rv) {
			return
		}
		if guard.guarded(pos) {
			return
		}
		if t := info.TypeOf(x.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				w.pass.Reportf(pos,
					"worker writes shared map %s (%s); map writes race and panic under concurrency — "+
						"commit per-index results and merge after the sweep", rv.Name(), what)
				return
			}
		}
		if indexIsLocal(x.Index) {
			return // commit-by-job-index store
		}
		w.pass.Reportf(pos,
			"worker writes %s[...] through a shared index (%s); a shared cursor serializes by arrival "+
				"order, not job order — index by the job index instead", rv.Name(), what)
	case *ast.SelectorExpr:
		root := rootIdentObj(info, x.X)
		rv, ok := root.(*types.Var)
		if !ok || workerLocal(rv) {
			return
		}
		if guard.guarded(pos) {
			return
		}
		w.pass.Reportf(pos,
			"worker writes field %s.%s of shared state (%s); interleaved field writes are "+
				"order-dependent — guard with a mutex or commit by job index", rv.Name(), x.Sel.Name, what)
	case *ast.StarExpr:
		root := rootIdentObj(info, x.X)
		rv, ok := root.(*types.Var)
		if !ok || workerLocal(rv) {
			return
		}
		if guard.guarded(pos) {
			return
		}
		w.pass.Reportf(pos,
			"worker writes through shared pointer %s (%s); guard with a mutex or commit by job index",
			rv.Name(), what)
	}
}

// checkReach flags package-level writes reachable from fn, a function
// a worker calls (or is). Mutex-guarded writes inside the callee are
// exempt via the callee's own guard index.
func (w *walker) checkReach(pos token.Pos, fn *types.Func, what string) {
	w.checkReachGuarded(pos, fn, nil, what)
}

func (w *walker) checkReachGuarded(pos token.Pos, fn *types.Func, callerGuard *guardIndex, what string) {
	if callerGuard != nil && callerGuard.guarded(pos) {
		return // the whole call happens inside a critical section
	}
	if v := w.reaches(fn, maxReachDepth, map[*types.Func]bool{}); v != nil {
		w.pass.Reportf(pos,
			"worker calls %s, which writes package-level variable %s without synchronization (%s); "+
				"package state shared across workers breaks run-to-run determinism", fn.Name(), v.Name(), what)
	}
}

// writeSummary caches, per function, the first unsynchronized
// package-level variable its body (transitively) writes.
type writeSummary struct {
	v        *types.Var
	resolved bool
}

// reaches returns the first package-level variable fn transitively
// writes without a guard, nil if none within depth.
func (w *walker) reaches(fn *types.Func, depth int, seen map[*types.Func]bool) *types.Var {
	if fn == nil || depth < 0 || seen[fn] {
		return nil
	}
	seen[fn] = true
	fn = fn.Origin()
	if s, ok := w.summaries[fn]; ok && s.resolved {
		return s.v
	}
	decl, info := w.declOf(fn)
	if decl == nil || decl.Body == nil {
		return nil
	}
	guard := newGuardIndex(info, decl.Body)
	var found *types.Var
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := packageLevelTarget(info, lhs); v != nil && !guard.guarded(n.Pos()) {
					found = v
				}
			}
		case *ast.IncDecStmt:
			if v := packageLevelTarget(info, n.X); v != nil && !guard.guarded(n.Pos()) {
				found = v
			}
		case *ast.CallExpr:
			if callee := lint.CalleeFunc(info, n); callee != nil && !guard.guarded(n.Pos()) {
				if v := w.reaches(callee, depth-1, seen); v != nil {
					found = v
				}
			}
		}
		return found == nil
	})
	w.summaries[fn] = &writeSummary{v: found, resolved: true}
	return found
}

// declOf resolves a function's declaration anywhere in the program.
func (w *walker) declOf(fn *types.Func) (*ast.FuncDecl, *types.Info) {
	if fn.Pkg() == nil {
		return nil, nil
	}
	pkg := w.pass.Program.Package(fn.Pkg().Path())
	if pkg == nil {
		return nil, nil
	}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, _ := pkg.Info.Defs[fd.Name].(*types.Func); obj != nil && obj.Origin() == fn {
					return fd, pkg.Info
				}
			}
		}
	}
	return nil, nil
}

// packageLevelTarget returns the package-level variable an assignment
// target ultimately names, nil otherwise.
func packageLevelTarget(info *types.Info, lhs ast.Expr) *types.Var {
	obj := rootIdentObj(info, lhs)
	if v, ok := obj.(*types.Var); ok && isPackageLevel(v) {
		return v
	}
	return nil
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// rootIdentObj resolves the base identifier of an lvalue chain
// (x, x.f, x[i], *x, (x)) to its object.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

// iterationVars collects the per-iteration variables of every loop on
// the stack enclosing the spawn site: range keys/values and `for i :=
// ...` init variables. Go ≥ 1.22 gives each iteration a fresh
// variable, so `go func() { out[i] = f(i) }()` inside `for i := range
// jobs` is the canonical commit-by-index pattern.
func iterationVars(info *types.Info, stack []ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	add := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				if n.Key != nil {
					add(n.Key)
				}
				if n.Value != nil {
					add(n.Value)
				}
			}
		case *ast.ForStmt:
			if as, ok := n.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
				for _, lhs := range as.Lhs {
					add(lhs)
				}
			}
		}
	}
	return out
}

// --- mutex-guard tracking ---------------------------------------------

// guardIndex records the Lock/Unlock structure of one function body:
// a position is guarded when more sync Lock/RLock calls than
// non-deferred Unlock/RUnlock calls precede it.
type guardIndex struct {
	events []guardEvent // sorted by position (AST walk order is source order)
}

type guardEvent struct {
	pos   token.Pos
	delta int
}

func newGuardIndex(info *types.Info, body *ast.BlockStmt) *guardIndex {
	g := &guardIndex{}
	ast.Inspect(body, func(n ast.Node) bool {
		if def, ok := n.(*ast.DeferStmt); ok {
			// A deferred Unlock releases at function exit; it must not
			// end the critical section at its textual position. A
			// deferred Lock makes no sense; skip the subtree entirely.
			_ = def
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lint.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		switch fn.Name() {
		case "Lock", "RLock":
			g.events = append(g.events, guardEvent{call.Pos(), +1})
		case "Unlock", "RUnlock":
			g.events = append(g.events, guardEvent{call.Pos(), -1})
		}
		return true
	})
	return g
}

func (g *guardIndex) guarded(pos token.Pos) bool {
	depth := 0
	for _, e := range g.events {
		if e.pos >= pos {
			break
		}
		depth += e.delta
	}
	return depth > 0
}
