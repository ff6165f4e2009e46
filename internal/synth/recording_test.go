package synth

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fpcache/internal/memtrace"
)

// TestRecordingMatchesGenerator pins the recording contract: every
// reader of a recording, whatever its pace, goroutine or skips, reads
// exactly the records a fresh generator emits. It runs every built-in
// profile, plus a phase-shift variant whose scan phase starts within
// the run, at two seeds and two scales, for 200k records (sat-solver
// drifts through many epochs by then). Two readers race each other on
// their own goroutines, each extending the recording when it gets
// ahead, and a third skips past the recorded end.
func TestRecordingMatchesGenerator(t *testing.T) {
	const n = 200_000
	profiles := All()
	shortPhase, err := ByName(PhaseShift)
	if err != nil {
		t.Fatal(err)
	}
	shortPhase.Name += "-short"
	shortPhase.PhaseEvery = 4000
	profiles = append(profiles, shortPhase)
	for _, p := range profiles {
		for _, seed := range []int64{1, 3} {
			for _, scale := range []float64{1.0 / 16, 1} {
				name := fmt.Sprintf("%s/seed%d/scale%g", p.Name, seed, scale)
				rec, err := mustTemplates(t, p, seed).NewRecording(scale)
				if err != nil {
					t.Fatal(err)
				}
				// The skipping reader lands inside a chunk, past the
				// end the racing readers recorded.
				skipTo := n + 3*recordChunk/2
				want := draw(mustGen(t, p, seed, scale), skipTo+1000)

				readers := []*Replay{rec.Replay(), rec.Replay()}
				errs := make([]string, len(readers))
				var wg sync.WaitGroup
				for g, r := range readers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if got, _ := r.Next(); got != want[i] {
								errs[g] = fmt.Sprintf("goroutine %d: record %d = %+v, generator %+v", g, i, got, want[i])
								return
							}
						}
					}()
				}
				wg.Wait()
				if msg := strings.Join(errs, ""); msg != "" {
					t.Fatalf("%s: %s", name, msg)
				}

				s := rec.Replay()
				if k := memtrace.Skip(s, 10); k != 10 {
					t.Fatalf("%s: skipped %d of 10", name, k)
				}
				if k, _ := s.SkipRecords(skipTo - 10); k != skipTo-10 {
					t.Fatalf("%s: skipped %d of %d", name, k, skipTo-10)
				}
				for i := skipTo; i < len(want); i++ {
					if got, _ := s.Next(); got != want[i] {
						t.Fatalf("%s: record %d after the skip = %+v, generator %+v", name, i, got, want[i])
					}
				}
				if got, _ := readers[0].Next(); got != want[n] {
					t.Fatalf("%s: record %d, recorded by the skip, = %+v, generator %+v", name, n, got, want[n])
				}

				g := rec.gen
				if p.DriftEvery > 0 && g.started < 2*p.DriftEvery {
					t.Fatalf("%s: %d visits never left drift epoch 1", name, g.started)
				}
				if p.PhaseEvery > 0 && p.PhaseEvery < n && g.started < 2*p.PhaseEvery {
					t.Fatalf("%s: %d visits never reached the scan phase", name, g.started)
				}
			}
		}
	}
}

// TestReplayZeroAllocs pins the replay's steady state: reading chunks
// another reader already recorded allocates nothing.
func TestReplayZeroAllocs(t *testing.T) {
	rec, err := mustTemplates(t, testProfile(), 1).NewRecording(1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4 * recordChunk
	memtrace.Skip(rec.Replay(), n)
	allocs := testing.AllocsPerRun(5, func() {
		r := rec.Replay()
		for i := 0; i < n; i++ {
			r.Next()
		}
	})
	// The one allocation per run is the Replay itself.
	if allocs > 1 {
		t.Fatalf("replaying %d recorded records allocates %.0f times", n, allocs)
	}
}

// BenchmarkReplayNext measures one replayed record over recorded
// chunks, against BenchmarkGeneratorNext's cost of generating it.
func BenchmarkReplayNext(b *testing.B) {
	p, err := ByName(WebSearch)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := mustTemplates(b, p, 1).NewRecording(1.0 / 16)
	if err != nil {
		b.Fatal(err)
	}
	const n = 64 * recordChunk
	memtrace.Skip(rec.Replay(), n)
	b.ResetTimer()
	r := rec.Replay()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			r = rec.Replay()
		}
		r.Next()
	}
}

// BenchmarkGeneratorNext measures one generated record.
func BenchmarkGeneratorNext(b *testing.B) {
	p, err := ByName(WebSearch)
	if err != nil {
		b.Fatal(err)
	}
	g, err := mustTemplates(b, p, 1).NewGenerator(1.0 / 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
