package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fpcache/internal/fault"
	"fpcache/internal/synth"
	"fpcache/internal/testutil"
)

// stripTiming zeroes the wall-clock fields so rows can be compared
// across runs and worker counts — the same normalization the CI row
// comparators apply.
func stripTiming(rows []IntervalRow) []IntervalRow {
	out := append([]IntervalRow(nil), rows...)
	for i := range out {
		out[i].Seconds = 0
		out[i].Speedup = 0
	}
	return out
}

// TestIntervalRowsDeterministic pins the interval study's rows —
// minus wall-clock — byte-identical between one worker and many, and
// between repeated runs (the trace file and checkpoint cache are
// rebuilt from scratch each time, so any leak of cache state or
// scheduling order into the results would show here).
func TestIntervalRowsDeterministic(t *testing.T) {
	o := tiny()
	o.Refs = 24_000
	o.WarmupRefs = 8_000
	o.Workloads = []string{synth.WebSearch}

	asJSON := func(rows []IntervalRow) string {
		b, err := json.Marshal(stripTiming(rows))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	o.Workers = 1
	serial, err := IntervalRows(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 8
	parallel, err := IntervalRows(o)
	if err != nil {
		t.Fatal(err)
	}
	repeat, err := IntervalRows(o)
	if err != nil {
		t.Fatal(err)
	}
	if asJSON(serial) == asJSON(parallel) {
		// Workers is part of the row, so serial vs parallel rows can
		// only agree if the field was lost.
		t.Fatal("workers=1 and workers=8 rows identical including Workers field")
	}
	norm := func(rows []IntervalRow) string {
		out := stripTiming(rows)
		for i := range out {
			out[i].Workers = 0
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := norm(parallel), norm(serial); got != want {
		t.Fatalf("rows differ between workers=1 and workers=8:\n%s\n%s", want, got)
	}
	if got, want := asJSON(repeat), asJSON(parallel); got != want {
		t.Fatalf("rows differ between repeated runs:\n%s\n%s", want, got)
	}

	// The rows themselves must report a healthy study: every exact mode
	// byte-matches the serial reference, the cold run stored checkpoints
	// that the warm run restored, and the sampled run measured the
	// configured fraction.
	byMode := map[string]IntervalRow{}
	for _, r := range parallel {
		byMode[r.Mode] = r
	}
	for _, mode := range []string{"serial", "cold", "parallel"} {
		if !byMode[mode].Match {
			t.Errorf("%s row does not match serial reference: %+v", mode, byMode[mode])
		}
	}
	if byMode["cold"].Segments != 1 {
		t.Errorf("cold run should be one serial chain, got %d segments", byMode["cold"].Segments)
	}
	if byMode["parallel"].Restored == 0 {
		t.Errorf("warm run restored no checkpoints: %+v", byMode["parallel"])
	}
	if f := byMode["sampled"].MeasuredFraction; f <= 0 || f >= 1 {
		t.Errorf("sampled fraction = %v, want in (0,1)", f)
	}
	if byMode["sampled"].HitRatioCI95 <= 0 {
		t.Errorf("sampled CI95 = %v, want > 0", byMode["sampled"].HitRatioCI95)
	}
}

// TestIntervalCheckpointQuarantine damages every boundary checkpoint
// the study stored and runs it again over the same directory: each
// checkpoint lands in the failure report once, as quarantined, and
// the rows equal the first run's, whose cold mode found no checkpoint
// either.
func TestIntervalCheckpointQuarantine(t *testing.T) {
	o := tiny()
	o.Refs, o.WarmupRefs, o.Workers = 24_000, 8_000, 2
	o = o.withDefaults()
	dir := t.TempDir()
	first, err := intervalWorkloadRows(o, synth.WebSearch, dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.warm"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("first run stored %d checkpoints (%v)", len(entries), err)
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
	o.rec = &failureRecorder{}
	again, err := intervalWorkloadRows(o, synth.WebSearch, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := testutil.AsJSON(t, stripTiming(again)), testutil.AsJSON(t, stripTiming(first)); got != want {
		t.Fatalf("rows after the quarantine differ:\nfirst: %s\nagain: %s", want, got)
	}
	rep := o.rec.report("intervals")
	if len(rep.Failures) != len(entries) {
		t.Fatalf("%d report entries for %d damaged checkpoints: %s", len(rep.Failures), len(entries), testutil.AsJSON(t, rep))
	}
	for i, f := range rep.Failures {
		if f.Disposition != DispositionQuarantined || f.Class != fault.ClassCorruptSnapshot ||
			i > 0 && f.Point == rep.Failures[i-1].Point {
			t.Errorf("entry %d = %s, want one quarantined corrupt snapshot per checkpoint", i, testutil.AsJSON(t, f))
		}
	}
}
