package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpcache"
	"fpcache/internal/memtrace"
)

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

	live, err := runFunctionalPoint(cfg, "", "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := runFunctionalPoint(cfg, "", path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := runFunctionalPoint(cfg, path, "", 0, nil)
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
	if _, err := runFunctionalPoint(cfg, "", path, 0, nil); err != nil {
		t.Fatal(err)
	}
	cfg.Design = fpcache.FootprintBanshee
	res, err := runFunctionalPoint(cfg, path, "", 0, nil)
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
	if _, err := runFunctionalPoint(testConfig(), path, "", 0, nil); err == nil {
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

	want, err := runFunctionalPoint(cfg, tail, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runFunctionalPoint(cfg, full, "", skip, nil)
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
	if _, err := runFunctionalPoint(cfg, path, "", 1_000_000, nil); err == nil {
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

	serial, err := runFunctionalPoint(cfg, path, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	printFunctional(&want, cfg, serial)

	run := func() string {
		var out bytes.Buffer
		if err := runIntervalPoint(&out, cfg, "functional", path, filepath.Join(dir, "ckpt"), 4, 0, 0, 4, 0); err != nil {
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
