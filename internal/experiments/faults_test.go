package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fpcache/internal/fault"
	"fpcache/internal/stats"
	"fpcache/internal/testutil"
)

// faultOptions is the small-but-real configuration the failure tests
// sweep: one workload and two capacities, so figure4 has two points.
func faultOptions(workers int) Options {
	return Options{
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

// rawRows marshals an experiment's typed rows to one JSON value per
// row, so single points compare byte for byte.
func rawRows(t *testing.T, rows any) []json.RawMessage {
	t.Helper()
	var raw []json.RawMessage
	if err := json.Unmarshal([]byte(testutil.AsJSON(t, rows)), &raw); err != nil {
		t.Fatal(err)
	}
	return raw
}

// panicAt, failAt and blockUntil build point hooks: the first panics at
// one point, the second fails the given points with an error, the third
// stalls every point until release is closed and then fails it.
func panicAt(point int) func(int) error {
	return func(i int) error {
		if i == point {
			panic(fmt.Sprintf("point %d panics", point))
		}
		return nil
	}
}

func failAt(points ...int) func(int) error {
	return func(i int) error {
		if slices.Contains(points, i) {
			return fmt.Errorf("point %d fails", i)
		}
		return nil
	}
}

func blockUntil(release <-chan struct{}) func(int) error {
	return func(int) error {
		<-release
		return errors.New("released after the deadline")
	}
}

// tolerate and timeout tune a failure run's Options.
func tolerate(o *Options) { o.Tolerate = true }

func timeout(o *Options) { o.PointTimeout = 25 * time.Millisecond; o.Tolerate = true }

// TestPointFailures drives each way a point can fail through figure4's
// real sweep: a failed point lands in the report as degraded with its
// class, and every other row is untouched.
func TestPointFailures(t *testing.T) {
	clean, err := Rows("figure4", faultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	cleanRows := rawRows(t, clean)
	if len(cleanRows) != 2 {
		t.Fatalf("expected 2 clean rows, got %d", len(cleanRows))
	}
	// release frees the stalled hooks the timeout case abandons, so
	// they end without simulating anything.
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })

	for _, tc := range []struct {
		name string
		hook func(point int) error
		tune func(o *Options)
		// wantErr: the experiment as a whole fails.
		wantErr bool
		// wantClasses: the class of every report entry, in order; all
		// are degraded.
		wantClasses []fault.Class
		// sameRows are clean-row indices that must survive byte for
		// byte.
		sameRows []int
	}{
		{
			name:        "panic-isolated-and-degraded",
			hook:        panicAt(0),
			tune:        tolerate,
			wantClasses: []fault.Class{fault.ClassPanic},
			sameRows:    []int{1},
		},
		{
			name:        "permanent-error-degraded",
			hook:        failAt(1),
			tune:        tolerate,
			wantClasses: []fault.Class{fault.ClassUnknown},
			sameRows:    []int{0},
		},
		{
			name:        "timeout-degraded",
			hook:        blockUntil(release),
			tune:        timeout,
			wantClasses: []fault.Class{fault.ClassTimeout, fault.ClassTimeout},
		},
		{
			name:        "permanent-error-not-tolerated",
			hook:        failAt(0),
			wantErr:     true,
			wantClasses: []fault.Class{fault.ClassUnknown},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := faultOptions(8)
			o.pointHook = tc.hook
			if tc.tune != nil {
				tc.tune(&o)
			}
			rows, rep, err := RowsWithReport("figure4", o)
			if tc.wantErr != (err != nil) {
				t.Fatalf("err = %v, want failure %v", err, tc.wantErr)
			}
			if len(rep.Failures) != len(tc.wantClasses) {
				t.Fatalf("got %d failures, want %d: %s", len(rep.Failures), len(tc.wantClasses), testutil.AsJSON(t, rep))
			}
			for i, f := range rep.Failures {
				if f.Disposition != DispositionDegraded || f.Class != tc.wantClasses[i] || f.Error == "" ||
					!strings.HasPrefix(f.Point, "sweep0/point") {
					t.Errorf("failure %d = %s, want degraded %s with a message", i, testutil.AsJSON(t, f), tc.wantClasses[i])
				}
			}
			if err == nil {
				got := rawRows(t, rows)
				for _, idx := range tc.sameRows {
					if string(got[idx]) != string(cleanRows[idx]) {
						t.Errorf("row %d diverged from the clean run\nclean:  %s\nfailed: %s", idx, cleanRows[idx], got[idx])
					}
				}
			}
		})
	}
}

// TestFigure6DegradedCells fails one workload's baseline and another's
// grid point in figure6's sweep under Tolerate. Every cell that reads a
// degraded point is zero-valued, not -100% or a division by zero, and
// each geomean column averages only the cells that did not degrade.
func TestFigure6DegradedCells(t *testing.T) {
	o := faultOptions(2)
	o.Workloads = []string{"web-search", "mapreduce"}
	clean, err := Figure6Rows(o)
	if err != nil {
		t.Fatal(err)
	}
	// Per workload: baseline, ideal, then (capacity, design) in Figure
	// 6's order. Fail web-search's baseline and mapreduce's block point
	// at the first capacity.
	const nPer = 2 + 2*3
	o.pointHook = failAt(0, nPer+2)
	o.Tolerate = true
	got, rep, err := RowsWithReport("figure6", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 2 {
		t.Fatalf("got %d failures, want 2: %s", len(rep.Failures), testutil.AsJSON(t, rep))
	}
	rows := got.([]PerfRow)
	if len(rows) != len(clean) || len(rows) != 6 {
		t.Fatalf("got %d rows, want %d: %s", len(rows), len(clean), testutil.AsJSON(t, rows))
	}
	cells := func(r PerfRow) [4]float64 { return [4]float64{r.Block, r.Page, r.Footprint, r.Ideal} }
	for i, r := range rows {
		for k, v := range cells(r) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("row %d (%s %dMB) cell %d = %v, want finite", i, r.Workload, r.CapacityMB, k, v)
			}
		}
	}
	// Rows: web-search 64/128, mapreduce 64/128, geomean 64/128.
	want := [4][4]float64{{}, {}, cells(clean[2]), cells(clean[3])}
	want[2][0] = 0
	for i := range want {
		if got := cells(rows[i]); got != want[i] {
			t.Errorf("row %d (%s %dMB) = %v, want %v", i, rows[i].Workload, rows[i].CapacityMB, got, want[i])
		}
	}
	// Only mapreduce's measured cells remain in each geomean column.
	for i, mr := range []int{2, 3} {
		var wantGeo [4]float64
		for k, v := range cells(rows[mr]) {
			if i == 0 && k == 0 {
				continue // both workloads' 64MB block cells degraded
			}
			wantGeo[k] = stats.GeoMean([]float64{1 + v}) - 1
		}
		if g := rows[4+i]; g.Workload != "geomean" || cells(g) != wantGeo {
			t.Errorf("geomean row %d = %s, want cells %v", i, testutil.AsJSON(t, g), wantGeo)
		}
	}
}

// TestFaultedSweepDeterminismParity pins the acceptance bar: whatever
// fails, rows, failure reports and the experiment's error are
// byte-identical at any worker count.
func TestFaultedSweepDeterminismParity(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })

	for _, tc := range []struct {
		name string
		hook func(point int) error
		tune func(o *Options)
	}{
		{"isolated-panic", panicAt(1), tolerate},
		{"permanent-error", failAt(0), tolerate},
		{"timeout", blockUntil(release), timeout},
		{"permanent-error-not-tolerated", failAt(1), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var runs []string
			for _, workers := range []int{1, 8} {
				o := faultOptions(workers)
				o.pointHook = tc.hook
				if tc.tune != nil {
					tc.tune(&o)
				}
				rows, rep, err := RowsWithReport("figure4", o)
				runs = append(runs, fmt.Sprintf("rows %s\nreport %s\nerr %v", testutil.AsJSON(t, rows), testutil.AsJSON(t, rep), err))
			}
			if runs[0] != runs[1] {
				t.Errorf("runs diverge across worker counts\n-j1: %s\n-j8: %s", runs[0], runs[1])
			}
		})
	}

	// One damaged entry among intact ones: each worker count mixes
	// cache hits with a quarantine and a cold fallback, and must still
	// produce the never-cached rows and the same report.
	t.Run("quarantine-fallback", func(t *testing.T) {
		o := faultOptions(2)
		o.Capacities = []int{64}
		neverCached, err := Rows("figure9", o)
		if err != nil {
			t.Fatal(err)
		}
		want := testutil.AsJSON(t, neverCached)

		populated := t.TempDir()
		o.StateCache = populated
		if _, err := Rows("figure9", o); err != nil {
			t.Fatal(err)
		}
		entries := cacheEntries(t, populated)
		if len(entries) < 2 {
			t.Fatalf("populating run stored %d entries, want at least 2", len(entries))
		}

		var reports []string
		for _, workers := range []int{1, 4} {
			dir := t.TempDir()
			for i, name := range entries {
				buf, err := os.ReadFile(filepath.Join(populated, name))
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					buf[3] ^= 1 << 6
				}
				if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			o.StateCache, o.Workers = dir, workers
			rows, rep, err := RowsWithReport("figure9", o)
			if err != nil {
				t.Fatalf("-j%d: %v", workers, err)
			}
			if got := testutil.AsJSON(t, rows); got != want {
				t.Errorf("-j%d: rows diverge from the never-cached run\nwant %s\ngot  %s", workers, want, got)
			}
			if len(rep.Failures) != 1 || rep.Failures[0].Disposition != DispositionQuarantined ||
				rep.Failures[0].Class != fault.ClassCorruptSnapshot {
				t.Errorf("-j%d: want the one damaged entry quarantined, got %s", workers, testutil.AsJSON(t, rep))
			}
			reports = append(reports, strings.ReplaceAll(testutil.AsJSON(t, rep), dir, "<cache>"))
		}
		if reports[0] != reports[1] {
			t.Errorf("reports diverge across worker counts\n-j1: %s\n-j4: %s", reports[0], reports[1])
		}
	})
}

// TestStateCacheQuarantine damages every entry of a populated state
// cache on disk and reruns the experiment at -j1 and -j4. Whatever the
// damage, every damaged entry is quarantined as a corrupt snapshot,
// its point falls back to a cold warmup, rows are byte-identical to a
// run that never used the cache, the reports of both worker counts
// agree, and the next run finds the cache healed. figure9 sweeps
// buildFunctional; the adaptive study sweeps buildFunctionalResized.
func TestStateCacheQuarantine(t *testing.T) {
	figure9 := faultOptions(2)
	figure9.Capacities = []int{64} // figure9 runs at a fixed capacity
	adaptive := Options{Scale: 1.0 / 64, Refs: 50_000, WarmupRefs: 25_000, Seed: 7, Workers: 2}

	damages := []struct {
		name   string
		damage func(b []byte) []byte
	}{
		{"flip-bit6-byte3", func(b []byte) []byte { b[3] ^= 1 << 6; return b }},
		{"truncate-300", func(b []byte) []byte { return b[:300] }},
		// A torn write that a reported-successful store can leave.
		{"torn-256", func(b []byte) []byte { return b[:256] }},
	}

	for _, exp := range []struct {
		name string
		o    Options
	}{{"figure9", figure9}, {"adaptive", adaptive}} {
		t.Run(exp.name, func(t *testing.T) {
			neverCached, err := Rows(exp.name, exp.o)
			if err != nil {
				t.Fatal(err)
			}
			want := testutil.AsJSON(t, neverCached)

			// run sweeps the experiment over the cache in dir and
			// returns its report with dir normalised away.
			run := func(t *testing.T, dir string, workers int) *FailureReport {
				t.Helper()
				o := exp.o
				o.StateCache, o.Workers = dir, workers
				rows, rep, err := RowsWithReport(exp.name, o)
				if err != nil {
					t.Fatalf("-j%d: %v", workers, err)
				}
				if got := testutil.AsJSON(t, rows); got != want {
					t.Fatalf("-j%d: rows diverge from the never-cached run\nwant %s\ngot  %s", workers, want, got)
				}
				for i := range rep.Failures {
					rep.Failures[i].Error = strings.ReplaceAll(rep.Failures[i].Error, dir, "<cache>")
				}
				return rep
			}

			clean := t.TempDir()
			if rep := run(t, clean, 2); len(rep.Failures) != 0 {
				t.Fatalf("populating run reported failures: %s", testutil.AsJSON(t, rep))
			}
			// One entry per distinct warm state: the adaptive row
			// shares its starting split's entry with that static row.
			entries := cacheEntries(t, clean)
			if len(entries) == 0 {
				t.Fatal("populating run stored no entries")
			}
			// Reports name an entry by its hash's first 12 digits.
			wantKeys := make([]string, len(entries))
			for i, name := range entries {
				wantKeys[i] = name[:12]
			}

			for _, d := range damages {
				t.Run(d.name, func(t *testing.T) {
					var reports []string
					for _, workers := range []int{1, 4} {
						dir := t.TempDir()
						for _, name := range entries {
							buf, err := os.ReadFile(filepath.Join(clean, name))
							if err != nil {
								t.Fatal(err)
							}
							if err := os.WriteFile(filepath.Join(dir, name), d.damage(buf), 0o644); err != nil {
								t.Fatal(err)
							}
						}
						rep := run(t, dir, workers)
						var keys []string
						for _, f := range rep.Failures {
							if f.Disposition != DispositionQuarantined || f.Class != fault.ClassCorruptSnapshot {
								t.Errorf("-j%d: failure %s, want quarantined %s", workers, testutil.AsJSON(t, f), fault.ClassCorruptSnapshot)
							}
							keys = append(keys, f.Point[strings.LastIndexByte(f.Point, '/')+1:])
						}
						slices.Sort(keys)
						if !slices.Equal(keys, wantKeys) {
							t.Errorf("-j%d: quarantined %v, want every damaged entry once %v", workers, keys, wantKeys)
						}
						reports = append(reports, testutil.AsJSON(t, rep))

						if rep := run(t, dir, workers); len(rep.Failures) != 0 {
							t.Errorf("-j%d: cache still failing after the quarantine run: %s", workers, testutil.AsJSON(t, rep))
						}
					}
					if reports[0] != reports[1] {
						t.Errorf("reports diverge across worker counts\n-j1: %s\n-j4: %s", reports[0], reports[1])
					}
				})
			}
		})
	}
}

// cacheEntries lists the snapshot file names in a state cache, sorted.
func cacheEntries(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.warm"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = filepath.Base(p)
	}
	return names
}
