package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"fpcache"
	"fpcache/internal/experiments"
	"fpcache/internal/memtrace"
	"fpcache/internal/system"
)

// TestMain lets a test run the command itself: with FPSIM_RUN_MAIN set,
// the test binary is fpsim, parsing its flags from the command line.
func TestMain(m *testing.M) {
	if os.Getenv("FPSIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fpsim runs the command in a child process and returns its stdout,
// stderr, and exit status.
func fpsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FPSIM_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exitErr *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exitErr) {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// fpsimOK is fpsim for a run that must succeed without complaint.
func fpsimOK(t *testing.T, args ...string) string {
	t.Helper()
	out, errOut, code := fpsim(t, args...)
	if code != 0 || errOut != "" || out == "" {
		t.Fatalf("fpsim %v: exit %d, %d bytes of report\n%s", args, code, len(out), errOut)
	}
	return out
}

// runFunctionalPoint is runFunctional without a state cache.
func runFunctionalPoint(cfg fpcache.Config, traceIn, traceOut string, skip int) (fpcache.FunctionalResult, error) {
	return runFunctional(cfg, traceIn, traceOut, skip, nil, "")
}

func testConfig() fpcache.Config {
	return fpcache.Config{
		Workload:        fpcache.MapReduce,
		Design:          fpcache.Footprint,
		PaperCapacityMB: 64,
		Scale:           1.0 / 64,
		Refs:            20_000,
		WarmupRefs:      10_000,
		Seed:            3,
	}
}

// TestTraceRoundTrip pins the record-and-replay contract: a run
// recorded with -trace-out and replayed with -trace-in produces a
// byte-identical FunctionalResult to the live generator run.
func TestTraceRoundTrip(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "run.trace")

	live, err := runFunctionalPoint(cfg, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := runFunctionalPoint(cfg, "", path, 0)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := runFunctionalPoint(cfg, path, "", 0)
	if err != nil {
		t.Fatal(err)
	}

	asJSON := func(v any) string {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	if asJSON(recorded) != asJSON(live) {
		t.Fatalf("recording changed the run:\nlive:     %s\nrecorded: %s", asJSON(live), asJSON(recorded))
	}
	if asJSON(replayed) != asJSON(live) {
		t.Fatalf("replay diverges from live run:\nlive:   %s\nreplay: %s", asJSON(live), asJSON(replayed))
	}

	// The file must hold exactly the consumed stream: warmup + refs.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := memtrace.NewReader(f)
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if r.Err() != nil {
		t.Fatalf("recorded trace unreadable: %v", r.Err())
	}
	if want := cfg.WarmupRefs + cfg.Refs; n != want {
		t.Fatalf("recorded %d records, want %d (warmup %d + refs %d)", n, want, cfg.WarmupRefs, cfg.Refs)
	}
}

// TestTraceReplayAcrossDesigns replays one recorded trace through a
// different design — the record-once, study-many workflow.
func TestTraceReplayAcrossDesigns(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "run.trace")
	if _, err := runFunctionalPoint(cfg, "", path, 0); err != nil {
		t.Fatal(err)
	}
	cfg.Design = fpcache.FootprintBanshee
	res, err := runFunctionalPoint(cfg, path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != string(fpcache.FootprintBanshee) {
		t.Fatalf("design = %q", res.Design)
	}
	if res.Refs != uint64(cfg.Refs) {
		t.Fatalf("replayed %d refs, want %d", res.Refs, cfg.Refs)
	}
}

// TestTraceReplayRejectsGarbage surfaces decode errors instead of
// silently simulating an empty trace.
func TestTraceReplayRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("not a trace file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runFunctionalPoint(testConfig(), path, "", 0); err == nil {
		t.Fatal("garbage trace accepted")
	}
}

// writeV2Trace records total generated records of cfg's workload into
// a chunked v2 trace file.
func writeV2Trace(t *testing.T, cfg fpcache.Config, path string, total, chunk int) {
	t.Helper()
	src, _, err := fpcache.NewTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := memtrace.NewWriterV2(f)
	if err := w.SetChunkRecords(chunk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		rec, ok := src.Next()
		if !ok {
			t.Fatalf("generator exhausted after %d records", i)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipFastForward pins -skip: fast-forwarding N records via the
// chunk index is byte-identical to replaying a recording that starts
// at record N — the skipped prefix is neither simulated nor decoded.
func TestSkipFastForward(t *testing.T) {
	cfg := testConfig()
	const skip = 7_000
	dir := t.TempDir()
	total := skip + cfg.WarmupRefs + cfg.Refs

	src, _, err := fpcache.NewTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]memtrace.Record, total)
	for i := range recs {
		rec, ok := src.Next()
		if !ok {
			t.Fatalf("generator exhausted after %d records", i)
		}
		recs[i] = rec
	}
	write := func(name string, recs []memtrace.Record) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := memtrace.NewWriterV2(f)
		if err := w.SetChunkRecords(512); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	full := write("full.v2", recs)
	tail := write("tail.v2", recs[skip:])

	want, err := runFunctionalPoint(cfg, tail, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runFunctionalPoint(cfg, full, "", skip)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("-skip %d diverges from replaying the truncated trace:\nwant %s\ngot  %s", skip, wantJSON, gotJSON)
	}
}

// TestSkipPastEnd surfaces a -skip beyond the recording instead of
// silently measuring nothing.
func TestSkipPastEnd(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "run.v2")
	writeV2Trace(t, cfg, path, 2_000, 512)
	if _, err := runFunctionalPoint(cfg, path, "", 1_000_000); err == nil {
		t.Fatal("-skip past the end of the trace accepted")
	}
}

// TestIntervalPointMatchesSerial pins the CLI interval path: the
// functional report block of an interval-parallel run is byte-identical
// to the serial replay's, with the plan summary appended after it, and
// a second run against the populated checkpoint cache restores
// boundaries while printing the same report.
func TestIntervalPointMatchesSerial(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	path := filepath.Join(dir, "run.v2")
	writeV2Trace(t, cfg, path, cfg.WarmupRefs+cfg.Refs, 512)

	serial, err := runFunctionalPoint(cfg, path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	printFunctional(&want, cfg, serial)

	cache, err := system.NewWarmCache(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		var out bytes.Buffer
		if err := runIntervalPoint(&out, cfg, "functional", path, cache, 4, 0, 0, 4, 0); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	cold, warm := run(), run()
	for name, got := range map[string]string{"cold": cold, "warm": warm} {
		if !strings.HasPrefix(got, want.String()) {
			t.Fatalf("%s interval report does not start with the serial block:\nserial:\n%s\ngot:\n%s", name, want.String(), got)
		}
		rest := strings.TrimPrefix(got, want.String())
		for _, line := range strings.Split(strings.TrimRight(rest, "\n"), "\n") {
			if !strings.HasPrefix(line, "interval") {
				t.Fatalf("%s run emitted a non-interval extra line %q", name, line)
			}
		}
	}
	if !strings.Contains(warm, "restored 4") {
		t.Fatalf("warm run did not restore every boundary checkpoint:\n%s", warm)
	}
}

// TestIntervalStateCacheReportsQuarantine damages every boundary
// checkpoint an -intervals run stored and reruns it: each entry is
// quarantined and reported on stderr exactly once, and the report is
// byte-identical to the cold run's, which stored the same checkpoints.
func TestIntervalStateCacheReportsQuarantine(t *testing.T) {
	cfg := testConfig()
	tmp := t.TempDir()
	trace := filepath.Join(tmp, "run.v2")
	writeV2Trace(t, cfg, trace, cfg.WarmupRefs+cfg.Refs, 512)
	dir := filepath.Join(tmp, "ckpt")
	args := append(pointArgs("mapreduce", "footprint"), "-trace-in", trace, "-intervals", "4", "-j", "2", "-state-cache", dir)

	cold := fpsimOK(t, args...)
	entries := cacheEntries(t, dir)
	if len(entries) == 0 || !strings.Contains(cold, fmt.Sprintf("restored 0 stored %d", len(entries))) {
		t.Fatalf("cold run stored %d checkpoints:\n%s", len(entries), cold)
	}
	for _, e := range entries {
		b, err := os.ReadFile(e)
		if err != nil {
			t.Fatal(err)
		}
		b[3] ^= 1 << 6
		if err := os.WriteFile(e, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, errOut, code := fpsim(t, args...)
	if code != 0 || got != cold {
		t.Fatalf("damaged checkpoints: exit %d, report differs from the cold run %v\n%s", code, got != cold, errOut)
	}
	lines := strings.Split(strings.TrimSpace(errOut), "\n")
	if len(lines) != len(entries) {
		t.Fatalf("%d stderr lines for %d damaged checkpoints:\n%s", len(lines), len(entries), errOut)
	}
	for _, e := range entries {
		if n := strings.Count(errOut, e+":"); n != 1 || !strings.Contains(errOut, "quarantined warm state") {
			t.Errorf("checkpoint %s reported %d times:\n%s", e, n, errOut)
		}
	}
}

// pointArgs are fpsim flags for testConfig's run parameters.
func pointArgs(workload, design string) []string {
	return []string{"-workload", workload, "-design", design, "-capacity", "64",
		"-scale", "0.015625", "-refs", "20000", "-warmup", "10000", "-seed", "3"}
}

// cacheEntries lists the snapshot entries of a state cache directory.
func cacheEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*.warm"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(entries)
	return entries
}

// backdate sets every entry's mtime an hour into the past, so a later
// Store — which renames a fresh file into place — shows as a new mtime.
func backdate(t *testing.T, entries []string) {
	t.Helper()
	past := time.Now().Add(-time.Hour)
	for _, e := range entries {
		if err := os.Chtimes(e, past, past); err != nil {
			t.Fatal(err)
		}
	}
}

// assertRestoredOnly fails unless dir holds exactly the backdated
// entries, untouched: every point of the run restored, none stored.
func assertRestoredOnly(t *testing.T, dir string, want []string) {
	t.Helper()
	got := cacheEntries(t, dir)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("cache entries changed:\nbefore %v\nafter  %v", want, got)
	}
	for _, e := range got {
		fi, err := os.Stat(e)
		if err != nil {
			t.Fatal(err)
		}
		if time.Since(fi.ModTime()) < 30*time.Minute {
			t.Fatalf("entry %s was rewritten (a miss), want a restore", e)
		}
	}
}

// TestStateCacheSweepMatchesCacheless pins fpsim's warm-state path: a
// two-point sweep at -j 2 prints byte-identical reports with no cache,
// while populating a -state-cache directory, while restoring from it
// (hitting both entries), and past a corrupt entry.
func TestStateCacheSweepMatchesCacheless(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "warm")
	args := append(pointArgs("mapreduce", "page,footprint"), "-j", "2")
	cached := append(args[:len(args):len(args)], "-state-cache", dir)

	want := fpsimOK(t, args...)
	if cold := fpsimOK(t, cached...); cold != want {
		t.Fatalf("populating the state cache changed the reports:\nwant:\n%s\ngot:\n%s", want, cold)
	}
	entries := cacheEntries(t, dir)
	if len(entries) != 2 {
		t.Fatalf("cold run stored %d entries, want one per point (2)", len(entries))
	}
	backdate(t, entries)
	if warm := fpsimOK(t, cached...); warm != want {
		t.Fatalf("restoring from the state cache changed the reports:\nwant:\n%s\ngot:\n%s", want, warm)
	}
	assertRestoredOnly(t, dir, entries)

	// A corrupt entry is quarantined and reported; its point warms cold
	// and still prints the cacheless report.
	if err := os.WriteFile(entries[0], []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, errOut, code := fpsim(t, cached...)
	if code != 0 || got != want || !strings.Contains(errOut, "quarantined") {
		t.Fatalf("corrupt entry: exit %d, stderr %q, reports match %v", code, errOut, got == want)
	}
}

// TestStateCacheKeysTraceContent pins the cache's stream identity: a
// state warmed on the web-search generator must not continue a replay
// of a mapreduce recording run under the same flags. The replay misses,
// stores its own entry, and prints the cacheless replay's report; a
// second replay restores that entry.
func TestStateCacheKeysTraceContent(t *testing.T) {
	tmp := t.TempDir()
	cfg := testConfig()
	trace := filepath.Join(tmp, "mr.v2")
	writeV2Trace(t, cfg, trace, cfg.WarmupRefs+cfg.Refs, 512)
	dir := filepath.Join(tmp, "warm")
	args := pointArgs("web-search", "footprint")
	cached := append(args[:len(args):len(args)], "-state-cache", dir)

	fpsimOK(t, cached...)
	if n := len(cacheEntries(t, dir)); n != 1 {
		t.Fatalf("generator run stored %d entries, want 1", n)
	}
	want := fpsimOK(t, append(args, "-trace-in", trace)...)
	replay := append(cached, "-trace-in", trace)
	if got := fpsimOK(t, replay...); got != want {
		t.Fatalf("cached replay differs from the cacheless replay:\nwant:\n%s\ngot:\n%s", want, got)
	}
	entries := cacheEntries(t, dir)
	if len(entries) != 2 {
		t.Fatalf("replay of different content stored %d entries in total, want 2 (a miss)", len(entries))
	}
	backdate(t, entries)
	if got := fpsimOK(t, replay...); got != want {
		t.Fatalf("restored replay differs from the cacheless replay:\nwant:\n%s\ngot:\n%s", want, got)
	}
	assertRestoredOnly(t, dir, entries)
}

// TestStateCacheSharedWithFpbench pins that fpsim keys a point as the
// experiment drivers do: after figure5 populates a state cache, fpsim
// restores the same point's entry instead of warming its own.
func TestStateCacheSharedWithFpbench(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "warm")
	if _, err := experiments.Rows("figure5", experiments.Options{
		Scale: 1.0 / 64, Refs: 20_000, WarmupRefs: 10_000, Seed: 3,
		Workloads: []string{"web-search"}, Capacities: []int{64}, StateCache: dir,
	}); err != nil {
		t.Fatal(err)
	}
	entries := cacheEntries(t, dir)
	backdate(t, entries)
	fpsimOK(t, append(pointArgs("web-search", "footprint"), "-state-cache", dir)...)
	assertRestoredOnly(t, dir, entries)
}

// TestStateCacheFlagConflicts pins the combinations -state-cache
// rejects, each with an error naming both flags.
func TestStateCacheFlagConflicts(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.v2")
	writeV2Trace(t, testConfig(), trace, 2_000, 512)
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-trace-in", "-"}, "-trace-in"},
		{[]string{"-trace-in", trace, "-skip", "100"}, "-skip"},
		{[]string{"-mode", "timing"}, "-mode timing"},
	} {
		args := append([]string{"-refs", "1000", "-state-cache", t.TempDir()}, c.args...)
		_, errOut, code := fpsim(t, args...)
		if code != 1 || !strings.Contains(errOut, "-state-cache") || !strings.Contains(errOut, c.flag) {
			t.Errorf("fpsim %v: exit %d, stderr %q; want exit 1 naming -state-cache and %s", args, code, errOut, c.flag)
		}
	}
}

// TestStateCacheRejectsCorruptWarmup pins that a trace corrupt inside
// its warmup prefix fails every cached run: the first run stores no
// state warmed on the truncated prefix, so a second run cannot restore
// one and skip past the damage.
func TestStateCacheRejectsCorruptWarmup(t *testing.T) {
	tmp := t.TempDir()
	cfg := testConfig()
	trace := filepath.Join(tmp, "mr.v2")
	writeV2Trace(t, cfg, trace, cfg.WarmupRefs+cfg.Refs, 512)
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := memtrace.NewFileReader(f)
	if err != nil {
		t.Fatal(err)
	}
	offsets, starts, _ := fr.Chunks()
	f.Close()
	// Flip a byte inside the chunk holding the warmup's middle record.
	i := sort.Search(len(starts), func(k int) bool { return starts[k] > uint64(cfg.WarmupRefs/2) }) - 1
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	data[(offsets[i]+offsets[i+1])/2] ^= 0xff
	if err := os.WriteFile(trace, data, 0o644); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(tmp, "warm")
	args := append(pointArgs("mapreduce", "footprint"), "-trace-in", trace, "-state-cache", dir)
	for run := 1; run <= 2; run++ {
		if _, errOut, code := fpsim(t, args...); code == 0 || !strings.Contains(errOut, "corrupt trace") {
			t.Fatalf("run %d over a corrupt warmup prefix: exit %d, stderr %q; want a corrupt-trace failure", run, code, errOut)
		}
		if entries := cacheEntries(t, dir); len(entries) != 0 {
			t.Fatalf("run %d stored %v from a truncated warmup", run, entries)
		}
	}
}
