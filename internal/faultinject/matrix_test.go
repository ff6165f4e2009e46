// End-to-end fault-injection matrix: every fault class the harness can
// schedule is driven through a real experiment sweep and must land in
// exactly one of the tolerated outcomes — degraded with a failure
// report, or quarantined with a cold-warmup fallback and rows
// byte-identical to a clean run — and never crash the sweep.
//
// The test lives in the external package so it can import experiments
// (which imports faultinject) without a cycle. Trace-read stream faults
// have no path through the synthetic-generator experiments; they are
// covered by the unit tests in faultinject_test.go and wired into fpsim.
package faultinject_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"fpcache/internal/experiments"
	"fpcache/internal/fault"
	"fpcache/internal/faultinject"
	"fpcache/internal/testutil"
)

// matrixOptions is the small-but-real experiment configuration the
// matrix runs: one workload, two capacities (figure4 sweeps the grid,
// so two sweep points), a few thousand references.
func matrixOptions(workers int) experiments.Options {
	return experiments.Options{
		Scale:      1.0 / 64,
		Refs:       3_000,
		WarmupRefs: 2_000,
		TimingRefs: 500,
		Seed:       7,
		Workloads:  []string{"web-search"},
		Capacities: []int{64, 128},
		Workers:    workers,
	}
}

func mustParse(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	inj, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return inj
}

// rawRows marshals an experiment's typed rows to a JSON array so tests
// can compare whole runs (and individual points) byte for byte without
// knowing the row type.
func rawRows(t *testing.T, rows any) []json.RawMessage {
	t.Helper()
	buf, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatalf("rows %s: %v", buf, err)
	}
	return raw
}

// TestPointFaultMatrix drives every point-site fault class through
// figure4's sweep and checks its disposition.
func TestPointFaultMatrix(t *testing.T) {
	clean, err := experiments.Rows("figure4", matrixOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	cleanRows := rawRows(t, clean)
	if len(cleanRows) != 2 {
		t.Fatalf("expected 2 clean rows, got %d", len(cleanRows))
	}

	cases := []struct {
		name string
		spec string
		tune func(o *experiments.Options)
		// wantErr: the experiment as a whole fails (still no crash).
		wantErr bool
		// wantFailures: (disposition, class) of every expected report
		// entry, in report order.
		wantFailures [][2]string
		// sameRows lists clean-row indices that must still match byte
		// for byte (-1 entries are degraded to the zero row).
		sameRows []int
	}{
		{
			name: "panic-isolated-and-degraded",
			spec: "point:panic:point=0",
			tune: func(o *experiments.Options) { o.Tolerate = true },
			wantFailures: [][2]string{
				{experiments.DispositionDegraded, string(fault.ClassPanic)},
			},
			sameRows: []int{1},
		},
		{
			name: "permanent-error-degraded",
			spec: "point:error:point=1",
			tune: func(o *experiments.Options) { o.Tolerate = true },
			wantFailures: [][2]string{
				{experiments.DispositionDegraded, string(fault.ClassUnknown)},
			},
			sameRows: []int{0},
		},
		{
			name: "timeout-degraded",
			spec: "point:sleep:ms=500",
			tune: func(o *experiments.Options) { o.PointTimeout = 25 * time.Millisecond; o.Tolerate = true },
			wantFailures: [][2]string{
				{experiments.DispositionDegraded, string(fault.ClassTimeout)},
				{experiments.DispositionDegraded, string(fault.ClassTimeout)},
			},
		},
		{
			name:    "permanent-error-not-tolerated",
			spec:    "point:error:point=0",
			wantErr: true,
			wantFailures: [][2]string{
				{experiments.DispositionDegraded, string(fault.ClassUnknown)},
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			o := matrixOptions(2)
			o.Injector = mustParse(t, tc.spec)
			if tc.tune != nil {
				tc.tune(&o)
			}
			rows, rep, err := experiments.RowsWithReport("figure4", o)
			if tc.wantErr {
				if err == nil {
					t.Fatal("expected the experiment to fail")
				}
			} else if err != nil {
				t.Fatalf("RowsWithReport: %v", err)
			}
			if len(rep.Failures) != len(tc.wantFailures) {
				t.Fatalf("got %d failures, want %d: %s", len(rep.Failures), len(tc.wantFailures), testutil.AsJSON(t, rep))
			}
			for i, want := range tc.wantFailures {
				f := rep.Failures[i]
				if f.Disposition != want[0] || string(f.Class) != want[1] {
					t.Errorf("failure %d: disposition=%q class=%q, want %q/%q (%s)",
						i, f.Disposition, f.Class, want[0], want[1], testutil.AsJSON(t, f))
				}
				if f.Disposition == experiments.DispositionDegraded && f.Error == "" {
					t.Errorf("failure %d: degraded without an error message", i)
				}
				if !strings.HasPrefix(f.Point, "sweep") {
					t.Errorf("failure %d: point key %q lacks a sweep/point identity", i, f.Point)
				}
			}
			if err != nil {
				return // no rows to compare on a failed experiment
			}
			got := rawRows(t, rows)
			for _, idx := range tc.sameRows {
				if string(got[idx]) != string(cleanRows[idx]) {
					t.Errorf("row %d diverged from the clean run\nclean:   %s\nfaulted: %s", idx, cleanRows[idx], got[idx])
				}
			}
		})
	}
}

// figure9Options configures the warm-state-cache experiment (figure9
// sweeps 7 FHT sizes through buildFunctional, which is the cached
// path).
func figure9Options(workers int, dir string) experiments.Options {
	o := matrixOptions(workers)
	o.Capacities = []int{64} // unused by figure9 (fixed 256MB) but keeps grids small
	o.StateCache = dir
	return o
}

// TestSnapshotFaultMatrix drives the warm-state cache's fault classes:
// torn writes, in-flight read corruption, and truncation. Each must
// quarantine and fall back to a cold warmup with rows byte-identical
// to a never-cached run.
func TestSnapshotFaultMatrix(t *testing.T) {
	neverCached, err := experiments.Rows("figure9", matrixOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	want := testutil.AsJSON(t, neverCached)

	// populate runs one clean cached sweep into dir and sanity-checks
	// parity with the never-cached rows.
	populate := func(t *testing.T, dir string) {
		rows, rep, err := experiments.RowsWithReport("figure9", figure9Options(2, dir))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Failures) != 0 {
			t.Fatalf("clean cached run reported failures: %s", testutil.AsJSON(t, rep))
		}
		if got := testutil.AsJSON(t, rows); got != want {
			t.Fatalf("cached run diverged from never-cached run\nnever-cached: %s\ncached:       %s", want, got)
		}
	}

	t.Run("torn-write-then-quarantine", func(t *testing.T) {
		dir := t.TempDir()
		// Run 1: every snapshot write is torn at 256 bytes but reports
		// success — the failure a crashed disk or lying write path
		// produces. The run itself computed its state live, so rows are
		// unaffected and nothing is reported yet.
		o := figure9Options(2, dir)
		o.Injector = mustParse(t, "snapshot-write:truncate:at=256")
		rows, rep, err := experiments.RowsWithReport("figure9", o)
		if err != nil {
			t.Fatal(err)
		}
		if got := testutil.AsJSON(t, rows); got != want {
			t.Fatalf("torn-write run diverged from clean rows")
		}
		if len(rep.Failures) != 0 {
			t.Fatalf("torn writes should be silent until read back: %s", testutil.AsJSON(t, rep))
		}

		// Run 2: every read hits the torn snapshot. All 7 entries must
		// quarantine, every point falls back to a cold warmup, and rows
		// stay byte-identical.
		rows, rep, err = experiments.RowsWithReport("figure9", figure9Options(2, dir))
		if err != nil {
			t.Fatal(err)
		}
		if got := testutil.AsJSON(t, rows); got != want {
			t.Fatalf("quarantine fallback diverged from never-cached rows\nwant: %s\ngot:  %s", want, testutil.AsJSON(t, rows))
		}
		if len(rep.Failures) != 7 {
			t.Fatalf("expected 7 quarantines, got %s", testutil.AsJSON(t, rep))
		}
		for _, f := range rep.Failures {
			if f.Disposition != experiments.DispositionQuarantined || f.Class != fault.ClassCorruptSnapshot {
				t.Fatalf("unexpected failure: %s", testutil.AsJSON(t, f))
			}
		}

		// Run 3: run 2 re-stored good snapshots; the cache is healthy
		// again.
		rows, rep, err = experiments.RowsWithReport("figure9", figure9Options(2, dir))
		if err != nil {
			t.Fatal(err)
		}
		if got := testutil.AsJSON(t, rows); got != want {
			t.Fatalf("recovered cache diverged from clean rows")
		}
		if len(rep.Failures) != 0 {
			t.Fatalf("recovered cache still reporting failures: %s", testutil.AsJSON(t, rep))
		}
	})

	t.Run("read-bitflip-quarantine", func(t *testing.T) {
		dir := t.TempDir()
		populate(t, dir)
		o := figure9Options(2, dir)
		// Flip a bit in the envelope header of every read stream:
		// guaranteed detection, whatever the body layout.
		o.Injector = mustParse(t, "snapshot-read:flipbit:offset=3,bit=6")
		rows, rep, err := experiments.RowsWithReport("figure9", o)
		if err != nil {
			t.Fatal(err)
		}
		if got := testutil.AsJSON(t, rows); got != want {
			t.Fatalf("bitflip fallback diverged from never-cached rows")
		}
		if len(rep.Failures) != 7 {
			t.Fatalf("expected 7 quarantines, got %s", testutil.AsJSON(t, rep))
		}
		for _, f := range rep.Failures {
			if f.Disposition != experiments.DispositionQuarantined || f.Class != fault.ClassCorruptSnapshot {
				t.Fatalf("unexpected failure: %s", testutil.AsJSON(t, f))
			}
		}
	})

	t.Run("read-truncation-quarantine", func(t *testing.T) {
		dir := t.TempDir()
		populate(t, dir)
		o := figure9Options(2, dir)
		o.Injector = mustParse(t, "snapshot-read:truncate:at=300")
		rows, rep, err := experiments.RowsWithReport("figure9", o)
		if err != nil {
			t.Fatal(err)
		}
		if got := testutil.AsJSON(t, rows); got != want {
			t.Fatalf("truncation fallback diverged from never-cached rows")
		}
		if len(rep.Failures) != 7 {
			t.Fatalf("expected 7 quarantines, got %s", testutil.AsJSON(t, rep))
		}
	})
}

// TestFaultedSweepDeterminismParity pins the acceptance bar: under the
// same seeded fault spec, rows AND failure reports are byte-identical
// at any worker count.
func TestFaultedSweepDeterminismParity(t *testing.T) {
	type run struct {
		rows   string
		report string
	}
	runFig4 := func(t *testing.T, workers int, spec string, tune func(o *experiments.Options)) run {
		o := matrixOptions(workers)
		o.Injector = mustParse(t, spec)
		if tune != nil {
			tune(&o)
		}
		rows, rep, err := experiments.RowsWithReport("figure4", o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return run{testutil.AsJSON(t, rows), testutil.AsJSON(t, rep)}
	}

	specs := []struct {
		name string
		spec string
		tune func(o *experiments.Options)
	}{
		{"isolated-panic", "point:panic:point=1", func(o *experiments.Options) { o.Tolerate = true }},
		{"permanent-error", "point:error:point=0", func(o *experiments.Options) { o.Tolerate = true }},
	}
	for _, tc := range specs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			serial := runFig4(t, 1, tc.spec, tc.tune)
			parallel := runFig4(t, 8, tc.spec, tc.tune)
			if serial.rows != parallel.rows {
				t.Errorf("rows diverge across worker counts\n-j1: %s\n-j8: %s", serial.rows, parallel.rows)
			}
			if serial.report != parallel.report {
				t.Errorf("failure reports diverge across worker counts\n-j1: %s\n-j8: %s", serial.report, parallel.report)
			}
		})
	}

	t.Run("quarantine-fallback", func(t *testing.T) {
		// Two identically populated caches, corrupted identically, swept
		// at different worker counts: rows and reports must match. The
		// cache directory path appears in quarantine error messages, so
		// it is normalized out before comparing.
		runQuarantine := func(workers int) run {
			dir := t.TempDir()
			if _, _, err := experiments.RowsWithReport("figure9", figure9Options(2, dir)); err != nil {
				t.Fatal(err)
			}
			o := figure9Options(workers, dir)
			o.Injector = mustParse(t, "snapshot-read:flipbit:offset=3,bit=6")
			rows, rep, err := experiments.RowsWithReport("figure9", o)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return run{testutil.AsJSON(t, rows), strings.ReplaceAll(testutil.AsJSON(t, rep), dir, "<cache>")}
		}
		serial := runQuarantine(1)
		parallel := runQuarantine(4)
		if serial.rows != parallel.rows {
			t.Errorf("quarantine rows diverge across worker counts")
		}
		if serial.report != parallel.report {
			t.Errorf("quarantine reports diverge across worker counts\n-j1: %s\n-j4: %s", serial.report, parallel.report)
		}
	})
}
