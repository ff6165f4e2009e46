// Package faulterr statically enforces the fault taxonomy on the
// snapshot and trace error paths: every error constructed there must
// wrap a fault.Err* sentinel or another error, so fault.ClassOf can
// classify it and the sweep layer picks the right disposition
// (quarantine, degrade) instead of treating a new error as an
// unclassified "unknown". Violations are bare errors.New inside a
// function body (package-level sentinels are the taxonomy itself and
// stay legal) and fmt.Errorf whose format string carries no %w verb.
package faulterr

import (
	"go/ast"
	"go/constant"
	"go/types"
	"path"
	"strings"

	"fpcache/internal/lint"
)

// Analyzer is the fault-taxonomy wrapping check.
var Analyzer = &lint.Analyzer{
	Name: "faulterr",
	Doc: "requires errors on snapshot/trace warm-restore paths to wrap a " +
		"fault.Err* sentinel or another error (%w), keeping fault.ClassOf exact",
	Run: run,
}

// systemFiles are the warm/restore-path files of internal/system the
// analyzer covers; the package's other files (spec parsing, runners)
// produce caller-facing configuration errors outside the taxonomy.
var systemFiles = map[string]bool{
	"state.go":     true,
	"warmcache.go": true,
}

func run(pass *lint.Pass) error {
	restrict := strings.HasSuffix(pass.Pkg.Path(), "internal/system")
	for _, file := range pass.Files {
		if restrict && !systemFiles[path.Base(pass.Fset.Position(file.Pos()).Filename)] {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkCall(pass, call)
				return true
			})
		}
	}
	return nil
}

func checkCall(pass *lint.Pass, call *ast.CallExpr) {
	fn := lint.CalleeFunc(pass.Info, call)
	if fn == nil {
		return
	}
	switch {
	case lint.IsPkgFunc(fn, "errors", "New"):
		pass.Reportf(call.Pos(),
			"bare errors.New on a warm/restore path classifies as fault.ClassUnknown; "+
				"wrap a fault.Err* sentinel or a cause with fmt.Errorf(...%%w...)")
	case lint.IsPkgFunc(fn, "fmt", "Errorf"):
		if len(call.Args) == 0 {
			return
		}
		if formatWraps(pass.Info, call.Args[0]) {
			return
		}
		pass.Reportf(call.Pos(),
			"fmt.Errorf without %%w on a warm/restore path classifies as fault.ClassUnknown; "+
				"wrap a fault.Err* sentinel or the underlying cause")
	}
}

// formatWraps reports whether the format expression certainly contains
// a %w verb: via its constant value when the checker folded one, else
// via any string literal part of a concatenation (the
// "prefix: "+format+": %w" helper pattern).
func formatWraps(info *types.Info, format ast.Expr) bool {
	if tv, ok := info.Types[format]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return strings.Contains(constant.StringVal(tv.Value), "%w")
	}
	found := false
	ast.Inspect(format, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && strings.Contains(lit.Value, "%w") {
			found = true
		}
		return !found
	})
	return found
}
