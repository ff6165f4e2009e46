package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fpcache/internal/lint"
)

var (
	shippedOnce sync.Once
	shippedProg *lint.Program
	shippedErr  error
)

// loadShipped loads the repository itself once for every test in this
// package — the whole-module type-check runs once no matter how many
// tests consume it.
func loadShipped(t *testing.T) *lint.Program {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	shippedOnce.Do(func() { shippedProg, shippedErr = lint.Load("../..", "./...") })
	if shippedErr != nil {
		t.Fatalf("loading module: %v", shippedErr)
	}
	return shippedProg
}

// TestShippedTreeIsClean is the suite's own regression gate: the
// checked-in tree must produce zero findings — including stale-ignore
// findings — so any new violation fails CI rather than accumulating.
func TestShippedTreeIsClean(t *testing.T) {
	prog := loadShipped(t)
	diags, audit, err := lint.RunProgramAudit(prog, suite())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	enabled := map[string]bool{}
	for _, a := range suite() {
		enabled[a.Name] = true
	}
	diags = append(diags, lint.StaleIgnores(audit, enabled)...)
	for _, d := range diags {
		t.Errorf("shipped tree has a finding: %s", d)
	}
}

// TestSuppressionAccounting pins the shipped tree's ignore contract:
// every //fplint:ignore directive suppresses exactly one finding. Zero
// means the directive is stale (the code it excused is gone); more
// than one means a directive silently widened its blast radius.
func TestSuppressionAccounting(t *testing.T) {
	prog := loadShipped(t)
	_, audit, err := lint.RunProgramAudit(prog, suite())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	if len(audit) == 0 {
		t.Fatal("no ignore directives found in the shipped tree; the audit is not seeing them")
	}
	for _, u := range audit {
		if u.Suppressed != 1 {
			t.Errorf("%s: //fplint:ignore %s suppressed %d finding(s), want exactly 1",
				u.Pos, strings.Join(u.Analyzers, ","), u.Suppressed)
		}
	}
}

// TestSuiteScopes pins the driver registry: all six analyzers present,
// scoped analyzers matching exactly their contract packages.
func TestSuiteScopes(t *testing.T) {
	byName := map[string]*lint.Analyzer{}
	for _, a := range suite() {
		byName[a.Name] = a
	}
	for _, name := range []string{"determinism", "hotpath", "faulterr", "snapmeta", "workershare", "allocbudget"} {
		if byName[name] == nil {
			t.Fatalf("suite is missing analyzer %q", name)
		}
	}
	if len(suite()) != 6 {
		t.Fatalf("suite has %d analyzers, want 6", len(suite()))
	}
	if m := byName["determinism"].Match; m == nil ||
		!m("fpcache/internal/experiments") || !m("fpcache/internal/sweep") ||
		m("fpcache/internal/memtrace") {
		t.Errorf("determinism scope wrong: must cover experiments and sweep, not memtrace")
	}
	if m := byName["faulterr"].Match; m == nil ||
		!m("fpcache/internal/snap") || m("fpcache/internal/experiments") {
		t.Errorf("faulterr scope wrong: must cover snap, not experiments")
	}
	if m := byName["workershare"].Match; m == nil ||
		!m("fpcache/internal/sweep") || !m("fpcache/cmd/fpsim") || m("fpcache/internal/dcache") {
		t.Errorf("workershare scope wrong: must cover sweep and cmd/fpsim, not dcache")
	}
	if byName["hotpath"].Match != nil || byName["snapmeta"].Match != nil || byName["allocbudget"].Match != nil {
		t.Errorf("hotpath, snapmeta, and allocbudget must run unscoped")
	}
}

// runDriver invokes run() as the CLI would, capturing stdout.
func runDriver(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code := run(args, out, os.Stderr)
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

// writeTempModule lays out a throwaway module named fpcache so the
// suite's package scopes apply to its files.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fpcache\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDriverExitCodes runs the CLI end to end on throwaway modules:
// findings exit 1 and print on stdout, a clean tree exits 0, a stale
// ignore directive is a finding, and options the driver does not have
// are usage errors.
func TestDriverExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list in -short mode")
	}
	const (
		dirty = `package system

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`
		clean = `package system

func Stamp() int64 { return 0 }
`
		stale = `package system

//fplint:ignore determinism the stamp feeds a documented wall-clock field
func Stamp() int64 { return 0 }
`
	)
	for _, tc := range []struct {
		name   string
		src    string
		flags  []string
		code   int
		stdout string
	}{
		{name: "finding", src: dirty, code: 1, stdout: "[determinism] time.Now"},
		{name: "clean", src: clean, code: 0},
		{name: "stale-ignore", src: stale, code: 1, stdout: "[fplint] stale //fplint:ignore determinism"},
		{name: "fix", src: dirty, flags: []string{"-fix"}, code: 2},
		{name: "sarif", src: dirty, flags: []string{"-sarif", "x"}, code: 2},
		{name: "analyzers", src: dirty, flags: []string{"-analyzers", "hotpath"}, code: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeTempModule(t, map[string]string{"internal/system/clock.go": tc.src})
			args := append(append([]string{"-C", dir}, tc.flags...), "./...")
			code, out := runDriver(t, args...)
			if code != tc.code {
				t.Fatalf("exited %d, want %d; stdout:\n%s", code, tc.code, out)
			}
			if tc.stdout != "" && !strings.Contains(out, tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, out)
			}
			if tc.code == 0 && out != "" {
				t.Errorf("clean run printed:\n%s", out)
			}
		})
	}
}
