// Package linttest is the fixture harness for the fplint analyzers,
// modeled on golang.org/x/tools/go/analysis/analysistest: a fixture is
// a directory of Go files (under the analyzer's testdata/, so the go
// tool ignores it) annotated with
//
//	expr // want `regexp`
//
// comments. Run type-checks the fixture against the enclosing module
// (fixtures may import fpcache/internal packages), runs one analyzer,
// and requires an exact match between reported diagnostics and want
// expectations, line by line. RunExpect trades want comments for an
// explicit expectation list, for cases where the finding is about a
// comment itself (malformed //fplint:ignore directives).
package linttest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"fpcache/internal/lint"
)

// wantRe extracts the backquoted patterns of a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run analyzes the fixture package in dir and compares diagnostics
// against its // want comments.
func Run(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	prog, err := lint.LoadFixture(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := lint.RunProgram(prog, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	wants := collectWants(t, prog)
	matchDiags(t, diags, wants)
}

// RunExpect analyzes the fixture and requires exactly len(patterns)
// diagnostics, each pattern matching at least one diagnostic.
func RunExpect(t *testing.T, dir string, a *lint.Analyzer, patterns []string) {
	t.Helper()
	prog, err := lint.LoadFixture(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := lint.RunProgram(prog, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	if len(diags) != len(patterns) {
		t.Errorf("got %d diagnostics, want %d:\n%s", len(diags), len(patterns), render(diags))
	}
	for _, p := range patterns {
		re := regexp.MustCompile(p)
		found := false
		for _, d := range diags {
			if re.MatchString(d.Message) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic matches %q:\n%s", p, render(diags))
		}
	}
}

func collectWants(t *testing.T, prog *lint.Program) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					pats := wantRe.FindAllStringSubmatch(c.Text[idx:], -1)
					if len(pats) == 0 {
						t.Fatalf("%s: want comment without a backquoted pattern: %s", pos, c.Text)
					}
					for _, m := range pats {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	return wants
}

func matchDiags(t *testing.T, diags []lint.Diagnostic, wants []*expectation) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.pattern)
		}
	}
}

func render(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	if b.Len() == 0 {
		return "  (none)"
	}
	return b.String()
}
