// Package lint is a self-contained static-analysis framework in the
// spirit of golang.org/x/tools/go/analysis, built only on the standard
// library so the repository carries no external tool dependency. It
// hosts the fplint analyzer suite (determinism, hotpath, faulterr,
// snapmeta, workershare, allocbudget) that turns the repo's
// runtime-tested invariants — byte-identical parallel runs, 0
// allocs/op on Design.Access, classified warm/restore errors,
// versioned snapshot layouts, index-committed worker writes — into
// compile-time checks.
//
// The moving parts mirror go/analysis deliberately: an Analyzer owns a
// Run function over a Pass; a Pass exposes one type-checked package
// (syntax, *types.Package, *types.Info) plus the Program it belongs
// to, so whole-program analyses (the hotpath and workershare call
// graphs) can see across package boundaries. Load builds a Program by
// shelling out to `go list -export -deps -json` and type-checking the
// module's packages against the gc export data of their dependencies,
// which works fully offline.
//
// Findings are suppressed per line with
//
//	//fplint:ignore <analyzer>[,<analyzer>] <reason>
//
// where the reason is mandatory: a directive without one is itself a
// diagnostic, and one that suppresses nothing is reported as stale.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in reports and ignore directives.
	Name string
	// Doc is the one-paragraph contract shown by fplint -list.
	Doc string
	// Match restricts which packages the driver runs the analyzer on
	// (by import path); nil means every package. The fixture harness
	// runs analyzers unscoped, so keep Match in the driver registry,
	// not in the analyzer's package.
	Match func(pkgPath string) bool
	// Run analyzes one package and reports through pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package syntax, comments included.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Sizes types.Sizes
	// Program is the whole run, for analyses that reason across
	// package boundaries.
	Program *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a finding at an explicit file position — for
// findings whose location is not part of the type-checked syntax (a
// compiler diagnostic's site, a line of a data file like the
// allocbudget manifest).
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunProgram runs every analyzer over every package of prog (honoring
// Analyzer.Match), applies the //fplint:ignore directives, and returns
// the surviving diagnostics in deterministic order.
func RunProgram(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunProgramAudit(prog, analyzers)
	return diags, err
}

// RunProgramAudit is RunProgram plus suppression accounting: it also
// returns one IgnoreUse per well-formed //fplint:ignore directive in
// the analyzed packages, recording how many findings each suppressed.
// A directive with Suppressed == 0 is stale — the code it excused no
// longer trips the analyzer — and callers turn it into a finding
// (StaleIgnores).
func RunProgramAudit(prog *Program, analyzers []*Analyzer) ([]Diagnostic, []IgnoreUse, error) {
	var diags []Diagnostic
	var audit []IgnoreUse
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.ImportPath) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Sizes:    prog.Sizes,
				Program:  prog,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		var uses []IgnoreUse
		diags, uses = applyIgnores(prog.Fset, pkg.Files, diags)
		audit = append(audit, uses...)
	}
	sortDiagnostics(diags)
	sort.Slice(audit, func(i, j int) bool {
		a, b := audit[i].Pos, audit[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return diags, audit, nil
}

// StaleIgnores converts unused directives into findings: a directive
// that suppressed nothing for any of the enabled analyzers it names is
// a lost invariant waiting to regress silently. enabled is the set of
// analyzer names that actually ran; directives naming only other
// analyzers are left alone (a run without them cannot judge them).
func StaleIgnores(audit []IgnoreUse, enabled map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, u := range audit {
		if u.Suppressed > 0 {
			continue
		}
		names := ""
		covered := false
		for _, a := range u.Analyzers {
			if enabled[a] {
				covered = true
			}
			if names != "" {
				names += ","
			}
			names += a
		}
		if !covered {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: "fplint",
			Pos:      u.Pos,
			Message: fmt.Sprintf("stale //fplint:ignore %s: it suppresses no finding; "+
				"delete it (or re-justify it) so silenced invariants stay visible", names),
		})
	}
	return out
}

// SortDiagnostics orders findings by file, line, column, analyzer,
// message — the stable order every output path uses. Callers that
// append findings after a Run* call (e.g. StaleIgnores) re-sort with
// this before printing.
func SortDiagnostics(diags []Diagnostic) { sortDiagnostics(diags) }

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// WithStack walks root like ast.Inspect but hands fn the full ancestor
// stack (stack[len(stack)-1] is the current node). Returning false
// prunes the subtree.
func WithStack(root ast.Node, fn func(stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(stack) {
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// CalleeFunc resolves the *types.Func a call expression invokes, nil
// for builtins, type conversions, and calls through function values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is the package-level (or method) named
// path.name.
func IsPkgFunc(fn *types.Func, path, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path && fn.Name() == name
}
