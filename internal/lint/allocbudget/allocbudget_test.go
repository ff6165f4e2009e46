package allocbudget_test

// The allocbudget analyzer shells out to the go tool, so its fixtures
// are real modules materialized in t.TempDir() rather than in-memory
// testdata packages: each test writes go.mod plus sources, loads the
// module with lint.Load (which sets Program.RootDir, without which the
// analyzer is a no-op), and asserts on the findings.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpcache/internal/lint"
	"fpcache/internal/lint/allocbudget"
)

const goMod = "module escmod\n\ngo 1.24\n"

// leakSrc has one compiler-verified escape: x is moved to the heap
// because its address is returned. Line 6 column 2 is where the gc
// escape analysis reports it.
const leakSrc = `package esc

// Leak returns the address of a local.
//
//fplint:hotpath
func Leak() *int {
	x := 42
	return &x
}
`

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runAlloc(t *testing.T, dir string) []lint.Diagnostic {
	t.Helper()
	prog, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := lint.RunProgram(prog, []*lint.Analyzer{allocbudget.Analyzer})
	if err != nil {
		t.Fatalf("running allocbudget: %v", err)
	}
	return diags
}

func TestFlagsHotEscapeAtCompilerPosition(t *testing.T) {
	dir := writeModule(t, map[string]string{"go.mod": goMod, "esc.go": leakSrc})
	diags := runAlloc(t, dir)
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if got, want := d.Pos.Filename, filepath.Join(dir, "esc.go"); got != want {
		t.Errorf("finding file = %s, want %s", got, want)
	}
	if d.Pos.Line != 7 {
		t.Errorf("finding line = %d, want 7 (the declaration of x)", d.Pos.Line)
	}
	for _, want := range []string{"x escapes to heap", "esc.Leak", "escape chain:", "lint/allocbudget.manifest"} {
		if !strings.Contains(d.Message, want) {
			t.Errorf("message %q does not mention %q", d.Message, want)
		}
	}
}

func TestColdEscapeNotFlagged(t *testing.T) {
	cold := strings.ReplaceAll(leakSrc, "//fplint:hotpath\n", "")
	dir := writeModule(t, map[string]string{"go.mod": goMod, "esc.go": cold})
	if diags := runAlloc(t, dir); len(diags) != 0 {
		t.Fatalf("escape outside the hot closure was flagged: %v", diags)
	}
}

func TestPanicPathExempt(t *testing.T) {
	src := `package esc

import "fmt"

//fplint:hotpath
func Check(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("esc: negative %d", n))
	}
	return n * 2
}
`
	dir := writeModule(t, map[string]string{"go.mod": goMod, "esc.go": src})
	if diags := runAlloc(t, dir); len(diags) != 0 {
		t.Fatalf("panic-path allocation was flagged: %v", diags)
	}
}

func TestManifestBudgetsTheEscape(t *testing.T) {
	manifest := "# budget\nescmod\tesc.Leak\tx escapes to heap\n"
	dir := writeModule(t, map[string]string{
		"go.mod": goMod, "esc.go": leakSrc,
		"lint/allocbudget.manifest": manifest,
	})
	if diags := runAlloc(t, dir); len(diags) != 0 {
		t.Fatalf("budgeted escape was flagged: %v", diags)
	}
}

func TestStaleManifestEntryIsAFinding(t *testing.T) {
	src := `package esc

//fplint:hotpath
func Double(n int) int { return n * 2 }
`
	manifest := "# budget\nescmod\tesc.Double\tx escapes to heap\n"
	dir := writeModule(t, map[string]string{
		"go.mod": goMod, "esc.go": src,
		"lint/allocbudget.manifest": manifest,
	})
	diags := runAlloc(t, dir)
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1 stale-entry finding: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "stale allocbudget budget") || !strings.Contains(d.Message, "esc.Double") {
		t.Errorf("unexpected stale message: %q", d.Message)
	}
	if got, want := d.Pos.Filename, filepath.Join(dir, "lint", "allocbudget.manifest"); got != want {
		t.Errorf("stale finding file = %s, want %s", got, want)
	}
	if d.Pos.Line != 2 {
		t.Errorf("stale finding line = %d, want 2 (the manifest entry)", d.Pos.Line)
	}
}

func TestIgnoreDirectiveSuppresses(t *testing.T) {
	src := `package esc

// Leak returns the address of a local.
//
//fplint:hotpath
func Leak() *int {
	//fplint:ignore allocbudget the one-time escape is measured and accepted
	x := 42
	return &x
}
`
	dir := writeModule(t, map[string]string{"go.mod": goMod, "esc.go": src})
	if diags := runAlloc(t, dir); len(diags) != 0 {
		t.Fatalf("ignored escape was still flagged: %v", diags)
	}
}

func TestMalformedManifestFailsTheRun(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": goMod, "esc.go": leakSrc,
		"lint/allocbudget.manifest": "escmod esc.Leak no tabs here\n",
	})
	prog, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if _, err := lint.RunProgram(prog, []*lint.Analyzer{allocbudget.Analyzer}); err == nil {
		t.Fatal("malformed manifest did not fail the run")
	}
}
