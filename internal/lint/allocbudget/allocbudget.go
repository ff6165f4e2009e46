// Package allocbudget closes the gap between the hotpath analyzer's
// syntactic allocation rules and what the compiler actually decides:
// it runs the gc escape analysis (`go build -gcflags=-m=2`) over every
// package containing //fplint:hotpath-reachable functions, parses the
// escape diagnostics, and flags any heap allocation site inside the
// hot closure that is not explicitly budgeted in the checked-in
// lint/allocbudget.manifest. The hotpath analyzer catches allocating
// *constructs* (fmt, string concat, boxing); this one catches what
// only escape analysis knows — a value the compiler could not prove
// stack-bound, whatever the syntax looks like. Findings carry the
// compiler's own escape chain so the fix is evident from the report.
//
// The manifest (lint/allocbudget.manifest at the module root) is the
// allocation budget: one tab-separated `pkgpath<TAB>function<TAB>
// message` line per tolerated escape. An entry that no longer matches
// any compiler diagnostic is itself a finding — a budget nobody pays
// against is a regression mask. Escapes whose chain passes through
// panic(...) are exempt, matching the hotpath analyzer's rule: the
// panic path is already catastrophic.
//
// The analyzer needs the module on disk, so on fixture programs (no
// root directory) it is a no-op. The build cache replays -m
// diagnostics on cache hits, so repeated runs cost one cache probe,
// not a recompile.
package allocbudget

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"fpcache/internal/lint"
	"fpcache/internal/lint/hotpath"
)

// Analyzer is the escape-analysis allocation-budget check.
var Analyzer = &lint.Analyzer{
	Name: "allocbudget",
	Doc: "flags compiler-verified heap allocations (go build -gcflags=-m=2) inside the " +
		"//fplint:hotpath closure unless budgeted in lint/allocbudget.manifest",
	Run: run,
}

// ManifestPath is the manifest location relative to the module root.
const ManifestPath = "lint/allocbudget.manifest"

// memoKey keys the one-per-program scan result in Program.Memo.
const memoKey = "allocbudget"

// scan is the whole-program result: findings precomputed once, then
// attributed to per-package passes.
type scan struct {
	// findings maps a package import path to the diagnostics positioned
	// in that package's hot functions.
	findings map[string][]finding
	// stale are manifest entries no compiler diagnostic matched,
	// reported once (with the first package pass).
	stale    []finding
	reported bool
}

type finding struct {
	pos token.Position
	msg string
}

func run(pass *lint.Pass) error {
	if pass.Program.RootDir == "" {
		return nil // fixture program: no module to build
	}
	memo, ok := pass.Program.Memo[memoKey]
	if !ok {
		sc, err := scanProgram(pass.Program)
		if err != nil {
			return err
		}
		memo = sc
		pass.Program.Memo[memoKey] = sc
	}
	sc := memo.(*scan)
	if !sc.reported {
		sc.reported = true
		for _, f := range sc.stale {
			pass.ReportAt(f.pos, "%s", f.msg)
		}
	}
	for _, f := range sc.findings[pass.Pkg.Path()] {
		pass.ReportAt(f.pos, "%s", f.msg)
	}
	return nil
}

// --- escape record parsing --------------------------------------------

// escapeRecord is one deduplicated compiler escape diagnostic.
type escapeRecord struct {
	file      string // module-root-relative, slash-separated
	line, col int
	msg       string   // e.g. "&x escapes to heap"
	chain     []string // -m=2 flow lines, whitespace-trimmed
}

var escapeLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// parseEscapes extracts escape records from `go build -gcflags=-m=2`
// stderr. The -m=2 format emits, per site, a detail block
// (`pos: MSG escapes to heap:` followed by `pos:   flow:`/
// `pos:     from ...` lines sharing the site's position prefix) and a
// summary line without the trailing colon; generic instantiations
// repeat sites once per shape. Records are deduplicated by position,
// keeping the first message and the union of chain lines.
func parseEscapes(out []byte) []*escapeRecord {
	byPos := map[string]*escapeRecord{}
	var order []string
	for _, raw := range strings.Split(string(out), "\n") {
		m := escapeLineRe.FindStringSubmatch(raw)
		if m == nil {
			continue
		}
		file, msg := m[1], m[4]
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		key := fmt.Sprintf("%s:%d:%d", file, line, col)
		if strings.HasPrefix(msg, " ") || strings.HasPrefix(msg, "\t") {
			// Chain line of the record at this position.
			if rec, ok := byPos[key]; ok {
				rec.chain = append(rec.chain, strings.TrimSpace(msg))
			}
			continue
		}
		isEscape := strings.HasSuffix(msg, " escapes to heap") ||
			strings.HasSuffix(msg, " escapes to heap:") ||
			strings.HasPrefix(msg, "moved to heap:")
		if !isEscape {
			continue
		}
		if _, ok := byPos[key]; ok {
			continue // summary duplicate or another generic shape
		}
		byPos[key] = &escapeRecord{
			file: filepath.ToSlash(file), line: line, col: col,
			msg: strings.TrimSuffix(msg, ":"),
		}
		order = append(order, key)
	}
	recs := make([]*escapeRecord, 0, len(order))
	for _, key := range order {
		recs = append(recs, byPos[key])
	}
	return recs
}

// panicOnly reports whether every escape flow of the record passes
// through a panic call — allocation that only happens when the program
// is already dying.
func (r *escapeRecord) panicOnly() bool {
	if len(r.chain) == 0 {
		return false
	}
	flows, throughPanic := 0, 0
	for _, line := range r.chain {
		if strings.HasPrefix(line, "flow:") {
			flows++
		}
		if strings.Contains(line, "from panic(") {
			throughPanic++
		}
	}
	return throughPanic >= flows && throughPanic > 0
}

// --- manifest ----------------------------------------------------------

type manifestEntry struct {
	pkg, fn, msg string
	line         int
	used         bool
}

// readManifest parses lint/allocbudget.manifest: one tab-separated
// `pkgpath<TAB>function<TAB>message` entry per line, '#' comments, a
// missing file meaning an empty budget.
func readManifest(path string) ([]*manifestEntry, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []*manifestEntry
	for i, line := range strings.Split(string(raw), "\n") {
		text := strings.TrimSpace(line)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("allocbudget: %s:%d: want `pkgpath<TAB>function<TAB>message`, got %q",
				path, i+1, line)
		}
		entries = append(entries, &manifestEntry{
			pkg: strings.TrimSpace(parts[0]), fn: strings.TrimSpace(parts[1]),
			msg: strings.TrimSpace(parts[2]), line: i + 1,
		})
	}
	return entries, nil
}

// --- the scan ----------------------------------------------------------

// hotRange is one hot function's body extent in a file.
type hotRange struct {
	start, end int // line numbers, inclusive
	label      string
	seed       string
	pkg        string
}

// span is a (line, column) source range, inclusive of both endpoints.
type span struct {
	startLine, startCol, endLine, endCol int
}

func (s span) contains(line, col int) bool {
	if line < s.startLine || line > s.endLine {
		return false
	}
	if line == s.startLine && col < s.startCol {
		return false
	}
	if line == s.endLine && col > s.endCol {
		return false
	}
	return true
}

// panicSpans collects the source extents of every panic(...) call in
// the hot packages. An escape site inside one is exempt even when its
// chain names only an intermediate call (a boxed fmt.Sprintf argument
// whose Sprintf result is what panic receives): allocation that only
// happens while the program is dying is not a hot-path regression,
// mirroring the hotpath analyzer's panic rule.
func panicSpans(prog *lint.Program, pkgs []string) map[string][]span {
	out := map[string][]span{}
	for _, path := range pkgs {
		pkg := prog.Package(path)
		if pkg == nil {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
					return true
				}
				start := prog.Fset.Position(call.Pos())
				end := prog.Fset.Position(call.End())
				out[start.Filename] = append(out[start.Filename], span{
					startLine: start.Line, startCol: start.Column,
					endLine: end.Line, endCol: end.Column,
				})
				return true
			})
		}
	}
	return out
}

func scanProgram(prog *lint.Program) (*scan, error) {
	hot := hotpath.ProgramHotFuncs(prog)
	sc := &scan{findings: map[string][]finding{}}
	if len(hot) == 0 {
		return sc, nil
	}

	// Hot packages, sorted for a deterministic build command.
	pkgSet := map[string]bool{}
	for _, h := range hot {
		pkgSet[h.Pkg.ImportPath] = true
	}
	pkgs := make([]string, 0, len(pkgSet))
	for p := range pkgSet {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)

	// Hot body ranges per absolute filename.
	ranges := map[string][]hotRange{}
	for fn, h := range hot {
		if h.Decl.Body == nil {
			continue
		}
		start := prog.Fset.Position(h.Decl.Pos())
		end := prog.Fset.Position(h.Decl.End())
		ranges[start.Filename] = append(ranges[start.Filename], hotRange{
			start: start.Line, end: end.Line,
			label: hotpath.FuncLabel(fn), seed: h.Seed, pkg: h.Pkg.ImportPath,
		})
	}

	// One compiler pass over the hot packages. `go build` succeeds and
	// prints -m diagnostics on stderr; on a build failure the lint run
	// fails loudly (the tree does not compile).
	args := append([]string{"build", "-gcflags=-m=2"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = prog.RootDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("allocbudget: go build -gcflags=-m=2: %v\n%s", err, stderr.String())
	}

	manifest, err := readManifest(filepath.Join(prog.RootDir, filepath.FromSlash(ManifestPath)))
	if err != nil {
		return nil, err
	}
	allowed := func(pkg, label, msg string) bool {
		ok := false
		for _, e := range manifest {
			if e.pkg == pkg && e.fn == label && e.msg == msg {
				e.used = true
				ok = true
			}
		}
		return ok
	}

	inPanic := panicSpans(prog, pkgs)
	for _, rec := range parseEscapes(stderr.Bytes()) {
		if rec.panicOnly() {
			continue
		}
		abs := rec.file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(prog.RootDir, filepath.FromSlash(rec.file))
		}
		exempt := false
		for _, s := range inPanic[abs] {
			if s.contains(rec.line, rec.col) {
				exempt = true
				break
			}
		}
		if exempt {
			continue
		}
		var hr *hotRange
		for i, r := range ranges[abs] {
			if rec.line >= r.start && rec.line <= r.end {
				hr = &ranges[abs][i]
				break
			}
		}
		if hr == nil {
			continue // escape outside the hot closure
		}
		if allowed(hr.pkg, hr.label, rec.msg) {
			continue
		}
		msg := fmt.Sprintf("heap allocation on the hot path: %s (in %s, reachable from %s); "+
			"budget it in %s or keep the value stack-bound", rec.msg, hr.label, hr.seed, ManifestPath)
		if len(rec.chain) > 0 {
			chain := rec.chain
			if len(chain) > 6 {
				chain = append(append([]string(nil), chain[:6]...), "...")
			}
			msg += "; escape chain: " + strings.Join(chain, " | ")
		}
		sc.findings[hr.pkg] = append(sc.findings[hr.pkg], finding{
			pos: token.Position{Filename: abs, Line: rec.line, Column: rec.col},
			msg: msg,
		})
	}

	manifestAbs := filepath.Join(prog.RootDir, filepath.FromSlash(ManifestPath))
	for _, e := range manifest {
		if e.used {
			continue
		}
		sc.stale = append(sc.stale, finding{
			pos: token.Position{Filename: manifestAbs, Line: e.line},
			msg: fmt.Sprintf("stale allocbudget budget: %s %s no longer reports %q; "+
				"delete the entry so the budget tracks reality", e.pkg, e.fn, e.msg),
		})
	}
	return sc, nil
}
