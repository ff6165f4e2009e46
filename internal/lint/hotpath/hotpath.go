// Package hotpath statically enforces the 0 allocs/op budget on the
// Access hot path. Seeds are methods annotated //fplint:hotpath —
// on an interface method (every implementation becomes hot) or on a
// concrete function — and the analyzer closes over the static call
// graph: direct calls, method calls, and interface calls expanded to
// every implementing type in the program. Functions in the closure
// must not contain allocating constructs:
//
//   - fmt calls (Sprintf and friends allocate and box),
//   - string concatenation,
//   - append to anything but caller-provided scratch (a parameter,
//     the receiver's own buffers, or a slice derived from either),
//   - interface boxing of non-pointer values,
//   - closures capturing large structs,
//   - map literals and make(map).
//
// Arguments of panic(...) are exempt — that path is already
// catastrophic. The closure spans every package of the run. The
// runtime allocation benchmarks (alloc_test.go) remain the ground
// truth; this analyzer catches the regression at compile time instead
// of bench time, including constructs the compiler's escape analysis
// (the allocbudget analyzer) never reports, such as string
// concatenation or a growing append.
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"fpcache/internal/lint"
)

// Analyzer is the hot-path allocation check.
var Analyzer = &lint.Analyzer{
	Name: "hotpath",
	Doc: "forbids allocating constructs in functions reachable from " +
		"//fplint:hotpath-annotated methods (the Design.Access closure)",
}

func init() { Analyzer.Run = run }

// memoKey keys the shared closure in Program.Memo.
const memoKey = "hotpath"

const directive = "//fplint:hotpath"

// funcNode is one declared function the analyzer can traverse.
type funcNode struct {
	decl *ast.FuncDecl
	pkg  *lint.PackageInfo
}

// closure is the program-wide result, memoized across per-package
// passes of one run.
type closure struct {
	// hot maps each hot function (generic origin) to the seed that
	// made it hot, for diagnostics.
	hot map[*types.Func]string
	// nodes indexes every declared function in the analyzed packages.
	nodes map[*types.Func]*funcNode
}

func run(pass *lint.Pass) error {
	cl := programClosure(pass.Program)
	// Report findings only for functions declared in this pass's
	// package, so the whole-program closure yields each diagnostic
	// exactly once.
	for fn, seed := range cl.hot {
		node := cl.nodes[fn]
		if node == nil || node.pkg.Pkg != pass.Pkg || node.decl.Body == nil {
			continue
		}
		checkBody(pass, node, seed)
	}
	return nil
}

// HotFunc is one member of the exported hotpath closure.
type HotFunc struct {
	Seed string            // the //fplint:hotpath seed that made it hot
	Decl *ast.FuncDecl     // its declaration
	Pkg  *lint.PackageInfo // the package declaring it
}

// ProgramHotFuncs exposes the whole-program hotpath closure to other
// analyzers (allocbudget intersects compiler escape diagnostics with
// it). The closure is memoized in prog.Memo under the same key the
// hotpath analyzer uses, so whichever runs first pays for the BFS.
func ProgramHotFuncs(prog *lint.Program) map[*types.Func]HotFunc {
	cl := programClosure(prog)
	out := make(map[*types.Func]HotFunc, len(cl.hot))
	for fn, seed := range cl.hot {
		if node := cl.nodes[fn]; node != nil {
			out[fn] = HotFunc{Seed: seed, Decl: node.decl, Pkg: node.pkg}
		}
	}
	return out
}

func programClosure(prog *lint.Program) *closure {
	if memo, ok := prog.Memo[memoKey]; ok {
		return memo.(*closure)
	}
	cl := buildClosure(prog.Packages)
	prog.Memo[memoKey] = cl
	return cl
}

// --- closure construction --------------------------------------------

func buildClosure(pkgs []*lint.PackageInfo) *closure {
	cl := &closure{hot: map[*types.Func]string{}, nodes: map[*types.Func]*funcNode{}}

	// Index every declared function and collect annotation seeds.
	type seed struct {
		fn   *types.Func
		name string
	}
	var concreteSeeds []seed
	var ifaceSeeds []seed
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					cl.nodes[fn] = &funcNode{decl: d, pkg: pkg}
					if hasDirective(d.Doc) {
						concreteSeeds = append(concreteSeeds, seed{fn, funcLabel(fn)})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						it, ok := ts.Type.(*ast.InterfaceType)
						if !ok {
							continue
						}
						for _, m := range it.Methods.List {
							if len(m.Names) == 0 || !(hasDirective(m.Doc) || hasDirective(m.Comment)) {
								continue
							}
							fn, _ := pkg.Info.Defs[m.Names[0]].(*types.Func)
							if fn != nil {
								ifaceSeeds = append(ifaceSeeds, seed{fn, pkg.Pkg.Name() + "." + ts.Name.Name + "." + fn.Name()})
							}
						}
					}
				}
			}
		}
	}

	// All named types of the program, for interface-call expansion.
	var named []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				named = append(named, n)
			}
		}
	}
	implementers := func(m *types.Func) []*types.Func {
		recv := m.Signature().Recv()
		if recv == nil {
			return nil
		}
		iface, ok := recv.Type().Underlying().(*types.Interface)
		if !ok {
			return nil
		}
		var out []*types.Func
		for _, n := range named {
			if types.IsInterface(n) {
				continue
			}
			ptr := types.NewPointer(n)
			if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				out = append(out, fn.Origin())
			}
		}
		return out
	}

	// BFS over static call edges.
	ifaceHot := map[*types.Func]string{}
	var queue []seed
	enqueue := func(fn *types.Func, label string) {
		fn = fn.Origin()
		if _, ok := cl.hot[fn]; ok {
			return
		}
		if _, ok := cl.nodes[fn]; !ok {
			return
		}
		cl.hot[fn] = label
		queue = append(queue, seed{fn, label})
	}
	markIface := func(m *types.Func, label string) {
		if _, ok := ifaceHot[m]; ok {
			return
		}
		ifaceHot[m] = label
		for _, impl := range implementers(m) {
			enqueue(impl, label)
		}
	}
	for _, s := range ifaceSeeds {
		markIface(s.fn, s.name)
	}
	for _, s := range concreteSeeds {
		enqueue(s.fn, s.name)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		node := cl.nodes[cur.fn]
		if node.decl.Body == nil {
			continue
		}
		info := node.pkg.Info
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.CalleeFunc(info, call)
			if fn == nil {
				return true
			}
			fn = fn.Origin()
			if recv := fn.Signature().Recv(); recv != nil {
				if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
					markIface(fn, cur.name)
					return true
				}
			}
			enqueue(fn, cur.name)
			return true
		})
	}
	return cl
}

func hasDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// FuncLabel is the package-qualified human label of a function
// (pkg.Type.Method for methods), the identity the allocbudget manifest
// keys entries by.
func FuncLabel(fn *types.Func) string { return funcLabel(fn) }

func funcLabel(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fn.Pkg().Name() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// --- allocation checks ------------------------------------------------

// largeCaptureBytes is the struct size past which capturing a variable
// in a closure is flagged: the variable escapes to the heap with the
// closure, copying the struct out of its frame.
const largeCaptureBytes = 128

func checkBody(pass *lint.Pass, node *funcNode, seed string) {
	info := node.pkg.Info
	scratch := scratchRoots(info, node.decl)
	decl := node.decl

	lint.WithStack(decl.Body, func(stack []ast.Node) bool {
		n := stack[len(stack)-1]
		// Allocation on a panic path is already catastrophic; skip the
		// arguments of panic(...) entirely.
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return false
				}
			}
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, info, n, scratch, seed)
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isStringType(info.TypeOf(n)) && !isConst(info, n) {
				pass.Reportf(n.Pos(), "string concatenation allocates on the hot path (reachable from %s)", seed)
			}
		case *ast.AssignStmt:
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(), "string concatenation allocates on the hot path (reachable from %s)", seed)
			}
			checkBoxingAssign(pass, info, n.Lhs, n.Rhs, seed)
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(), "map literal allocates on the hot path (reachable from %s)", seed)
				}
			}
		case *ast.FuncLit:
			checkCapture(pass, info, decl, n, seed)
		}
		return true
	})
}

func checkCall(pass *lint.Pass, info *types.Info, call *ast.CallExpr, scratch map[types.Object]bool, seed string) {
	// Builtins: append and make.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if len(call.Args) > 0 && !scratchRooted(info, call.Args[0], scratch) {
					pass.Reportf(call.Pos(),
						"append to %s allocates beyond caller-provided scratch on the hot path (reachable from %s); "+
							"append into a parameter or a receiver-owned buffer", exprString(call.Args[0]), seed)
				}
			case "make":
				if len(call.Args) > 0 {
					if t := info.TypeOf(call.Args[0]); t != nil {
						if _, ok := t.Underlying().(*types.Map); ok {
							pass.Reportf(call.Pos(), "make(map) allocates on the hot path (reachable from %s)", seed)
						}
					}
				}
			}
			return
		}
	}
	fn := lint.CalleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates and boxes its arguments on the hot path (reachable from %s)", fn.Name(), seed)
		return
	}
	// Interface boxing of arguments.
	sigT, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // type conversion or builtin
	}
	params := sigT.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sigT.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		reportBoxing(pass, info, arg, pt, seed)
	}
}

func checkBoxingAssign(pass *lint.Pass, info *types.Info, lhs, rhs []ast.Expr, seed string) {
	if len(lhs) != len(rhs) {
		return
	}
	for i := range lhs {
		lt := info.TypeOf(lhs[i])
		if lt == nil {
			continue
		}
		reportBoxing(pass, info, rhs[i], lt, seed)
	}
}

// reportBoxing flags storing a non-pointer-shaped concrete value into
// an interface-typed slot: the value is copied to the heap.
func reportBoxing(pass *lint.Pass, info *types.Info, val ast.Expr, target types.Type, seed string) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := info.Types[val]
	if !ok || tv.Value != nil || tv.IsNil() {
		return // constants fold; untyped nil never boxes
	}
	vt := tv.Type
	if vt == nil {
		return
	}
	switch vt.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // already an interface, or pointer-shaped: no allocation
	}
	pass.Reportf(val.Pos(),
		"passing %s by value into interface %s boxes and allocates on the hot path (reachable from %s); pass a pointer",
		types.TypeString(vt, types.RelativeTo(pass.Pkg)), types.TypeString(target, types.RelativeTo(pass.Pkg)), seed)
}

// checkCapture flags closures capturing large structs from the
// enclosing hot function: the captured variable escapes with the
// closure.
func checkCapture(pass *lint.Pass, info *types.Info, encl *ast.FuncDecl, lit *ast.FuncLit, seed string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Captured = declared inside the enclosing function but outside
		// the literal.
		if obj.Pos() < encl.Pos() || obj.Pos() > encl.End() {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			return true
		}
		if size := pass.Sizes.Sizeof(st); size >= largeCaptureBytes {
			pass.Reportf(id.Pos(),
				"closure captures %s (struct %s, %d bytes) on the hot path (reachable from %s); the capture forces a heap copy",
				obj.Name(), types.TypeString(obj.Type(), types.RelativeTo(pass.Pkg)), size, seed)
		}
		return true
	})
}

// --- scratch-buffer tracking ------------------------------------------

// scratchRoots computes the variables append may legitimately grow in
// a hot function: slice-typed parameters and the receiver, plus locals
// (transitively) derived from them — `out := ops[:0]` stays scratch.
func scratchRoots(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	roots := map[types.Object]bool{}
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				roots[obj] = true
			}
		}
	}
	if decl.Recv != nil {
		for _, f := range decl.Recv.List {
			addField(f)
		}
	}
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			addField(f)
		}
	}
	if decl.Body == nil {
		return roots
	}
	// Fixpoint over assignments: a local assigned from a scratch-rooted
	// expression becomes scratch itself.
	for changed := true; changed; {
		changed = false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil || roots[obj] {
					continue
				}
				if scratchRooted(info, as.Rhs[i], roots) {
					roots[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return roots
}

// scratchRooted reports whether e ultimately aliases a scratch root:
// the root identifier of slicings, index/selector chains, and append
// results must be (or be a field of) a scratch variable.
func scratchRooted(info *types.Info, e ast.Expr, roots map[types.Object]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			// A field of a scratch root (receiver-owned buffer) is
			// scratch; so is a field chain ending at one.
			e = x.X
		case *ast.CallExpr:
			// append(scratch, ...) yields scratch.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(x.Args) > 0 {
					e = x.Args[0]
					continue
				}
			}
			return false
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			return obj != nil && roots[obj]
		default:
			return false
		}
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConst reports whether the checker folded e to a constant (constant
// string concatenation happens at compile time).
func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.SliceExpr:
		return exprString(x.X) + "[...]"
	default:
		return "a fresh slice"
	}
}
