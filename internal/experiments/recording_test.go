package experiments

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fpcache/internal/memtrace"
	"fpcache/internal/synth"
)

// recordingTracker counts the recordings a trace cache holds through
// its track hook.
type recordingTracker struct {
	mu       sync.Mutex
	live     int
	peak     int
	recorded map[string]int
}

func trackRecordings(o *Options) *recordingTracker {
	tr := &recordingTracker{recorded: map[string]int{}}
	o.traces = &traceCache{track: func(wl string, delta int) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tr.live += delta
		tr.peak = max(tr.peak, tr.live)
		if delta > 0 {
			tr.recorded[wl]++
		}
	}}
	return tr
}

// TestRecordingLifetime pins the lifetime of the per-call recordings
// on figure5's and figure6's workload-major sweeps: at most one
// recording per worker is held at once, each workload is recorded once
// per sweep, and none is held when the call returns, also when a
// workload's last point fails by error or panic.
func TestRecordingLifetime(t *testing.T) {
	all := []string{synth.WebSearch, synth.MapReduce, synth.SATSolver, synth.WebFrontend, synth.Multiprogrammed}
	for _, name := range []string{"figure5", "figure6"} {
		// Points per workload, so the hook can fail a workload's last.
		nPer := 1 + 3*2
		if name == "figure6" {
			nPer = 2 + 3*2
		}
		for _, workers := range []int{1, 4} {
			for _, fail := range []struct {
				label string
				hook  func(int) error
			}{
				{"clean", nil},
				{"error-at-last-point", failAt(nPer - 1)},
				{"panic-at-last-point", panicAt(2*nPer - 1)},
			} {
				t.Run(fmt.Sprintf("%s/j%d/%s", name, workers, fail.label), func(t *testing.T) {
					o := Options{
						Scale: 1.0 / 64, Refs: 3_000, WarmupRefs: 3_000, TimingRefs: 1_000, Seed: 1,
						Workloads: all, Capacities: []int{64, 256}, Workers: workers,
						pointHook: fail.hook,
					}
					tr := trackRecordings(&o)
					// A failed point fails the call, after the sweep ran
					// every point.
					_, rep, err := RowsWithReport(name, o)
					wantFailures := 0
					if fail.hook != nil {
						wantFailures = 1
					}
					if (err != nil) != (wantFailures > 0) || len(rep.Failures) != wantFailures {
						t.Fatalf("err = %v with %d failures, want %d", err, len(rep.Failures), wantFailures)
					}
					if tr.live != 0 {
						t.Errorf("%d recordings still held after the call", tr.live)
					}
					if tr.peak > workers {
						t.Errorf("%d recordings held at once on %d workers", tr.peak, workers)
					}
					for _, wl := range all {
						if got := tr.recorded[wl]; got != 1 {
							t.Errorf("%s recorded %d times in one sweep", wl, got)
						}
					}
				})
			}
		}
	}
}

// TestTimedOutReaderKeepsItsRecording times out a workload's last
// point while it is reading: the sweep releases the recording when the
// point settles, and the abandoned reader still reads correct records,
// past the point where the other points stopped recording.
func TestTimedOutReaderKeepsItsRecording(t *testing.T) {
	const wl, n = synth.WebSearch, 3 * 16384
	for _, workers := range []int{1, 4} {
		o := Options{Scale: 1.0 / 64, Seed: 3, Workers: workers, PointTimeout: 100 * time.Millisecond, Tolerate: true}.withDefaults()
		tr := trackRecordings(&o)
		prof, err := synth.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := synth.NewGenerator(prof, o.Seed, o.Scale)
		if err != nil {
			t.Fatal(err)
		}
		want := memtrace.Collect(gen, 2*n)
		check := func(src memtrace.Source, from, to int) error {
			for i := from; i < to; i++ {
				if got, _ := src.Next(); got != want[i] {
					return fmt.Errorf("record %d = %+v, generator %+v", i, got, want[i])
				}
			}
			return nil
		}

		resume := make(chan struct{})
		late := make(chan error, 1)
		_, err = pmap(o, 3, byWorkload([]string{wl}, 3), func(i int) (int, error) {
			src, _, err := o.trace(wl)
			if err != nil {
				return 0, err
			}
			if err := check(src, 0, n); err != nil || i < 2 {
				return 0, err
			}
			<-resume
			late <- check(src, n, 2*n)
			return 0, errors.New("finished after its deadline")
		})
		if err != nil {
			t.Fatal(err)
		}
		if tr.live != 0 || tr.recorded[wl] != 1 {
			t.Fatalf("j%d: after the sweep %d recordings held, %s recorded %d times", workers, tr.live, wl, tr.recorded[wl])
		}
		close(resume)
		if err := <-late; err != nil {
			t.Fatalf("j%d: timed-out reader: %v", workers, err)
		}
	}
}
