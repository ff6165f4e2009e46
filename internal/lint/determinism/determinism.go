// Package determinism statically enforces the repo's headline
// guarantee — byte-identical output at any worker count — in the
// packages that feed deterministic results. Three bug classes are
// flagged:
//
//   - time.Now / time.Since: wall-clock reads leak nondeterminism into
//     rows unless they feed the documented wall-clock fields (annotate
//     those with //fplint:ignore determinism <why>).
//   - package-level math/rand draws (rand.Intn, rand.Shuffle, ...):
//     the shared source is unseeded and racy; deterministic code holds
//     its own rand.New(rand.NewSource(seed)).
//   - range over a map whose body appends to a slice, sends on a
//     channel, or writes output, with no sort after the loop — the
//     exact class the -j1/-jN parity tests exist to catch, surfaced at
//     compile time instead.
package determinism

import (
	"go/ast"
	"go/types"

	"fpcache/internal/lint"
)

// Analyzer is the determinism check.
var Analyzer = &lint.Analyzer{
	Name: "determinism",
	Doc: "flags wall-clock reads, unseeded math/rand draws, and order-sensitive " +
		"map iteration in packages that must produce byte-identical output",
	Run: run,
}

// randConstructors are the package-level math/rand functions that
// build explicitly-seeded sources rather than drawing from the shared
// one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		lint.WithStack(file, func(stack []ast.Node) bool {
			switch n := stack[len(stack)-1].(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n, stack)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *lint.Pass, call *ast.CallExpr) {
	fn := lint.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(),
				"time.%s in a deterministic package: wall clock must not reach reported rows "+
					"(//fplint:ignore determinism <why> for documented wall-clock fields)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return // methods on an explicit *rand.Rand are fine
		}
		if !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"package-level %s.%s draws from the shared unseeded source; "+
					"use a rand.New(rand.NewSource(seed)) owned by the run", fn.Pkg().Path(), fn.Name())
		}
	}
}

// checkMapRange flags `for ... := range m` over a map whose body has
// order-sensitive effects and no later sort in the enclosing block.
func checkMapRange(pass *lint.Pass, rng *ast.RangeStmt, stack []ast.Node) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	effect := orderSensitiveEffect(pass, rng.Body)
	if effect == "" {
		return
	}
	if sortFollows(pass, rng, stack) {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order is random, and this loop %s with no sort after it; "+
			"collect keys, sort, and iterate the slice", effect)
}

// orderSensitiveEffect reports the first iteration-order-dependent
// effect in a range body: appending to a slice, sending on a channel,
// or writing output.
func orderSensitiveEffect(pass *lint.Pass, body *ast.BlockStmt) string {
	effect := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			effect = "sends on a channel"
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					effect = "appends to a slice"
					return false
				}
			}
			if fn := lint.CalleeFunc(pass.Info, n); fn != nil && fn.Pkg() != nil && isOutputCall(fn) {
				effect = "writes output"
				return false
			}
		}
		return true
	})
	return effect
}

// isOutputCall recognizes fmt printing and direct io.Writer writes.
func isOutputCall(fn *types.Func) bool {
	if fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return true
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "Encode":
			return true
		}
	}
	return false
}

// sortFollows reports whether any statement after rng in its enclosing
// block (at any nesting depth inside those statements) calls into
// sort or slices — the canonical collect-then-sort pattern.
func sortFollows(pass *lint.Pass, rng *ast.RangeStmt, stack []ast.Node) bool {
	// Find the innermost block containing rng directly.
	for i := len(stack) - 2; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		idx := -1
		for j, s := range block.List {
			if s == ast.Stmt(rng) {
				idx = j
				break
			}
		}
		if idx < 0 {
			continue
		}
		for _, s := range block.List[idx+1:] {
			found := false
			ast.Inspect(s, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := lint.CalleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil {
						switch fn.Pkg().Path() {
						case "sort", "slices":
							found = true
						}
					}
				}
				return !found
			})
			if found {
				return true
			}
		}
		return false
	}
	return false
}
