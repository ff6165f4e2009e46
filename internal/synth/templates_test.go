package synth

import (
	"sync"
	"testing"

	"fpcache/internal/memtrace"
)

func mustTemplates(t testing.TB, p Profile, seed int64) *Templates {
	t.Helper()
	tmpl, err := NewTemplates(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

func draw(g *Generator, n int) []memtrace.Record {
	recs := make([]memtrace.Record, n)
	for i := range recs {
		recs[i], _ = g.Next()
	}
	return recs
}

// TestSharedTemplatesMatchPrivate pins the sharing contract: generators
// built on one table emit exactly the records of generators that derive
// a private table, however their draws interleave. The extra
// short-phase profile reaches phase-shift's scan phase within the run;
// sat-solver drifts through several epochs at the library's scale.
func TestSharedTemplatesMatchPrivate(t *testing.T) {
	const n = 200_000
	const scale = 1.0 / 16
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
			tmpl := mustTemplates(t, p, seed)
			a, err := tmpl.NewGenerator(scale)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tmpl.NewGenerator(scale)
			if err != nil {
				t.Fatal(err)
			}
			want := draw(mustGen(t, p, seed, scale), n)
			for i := 0; i < n; i++ {
				ra, _ := a.Next()
				rb, _ := b.Next()
				if ra != want[i] || rb != want[i] {
					t.Fatalf("%s seed %d: record %d: shared %+v / %+v, private %+v", p.Name, seed, i, ra, rb, want[i])
				}
			}
			if p.DriftEvery > 0 && a.started < 2*p.DriftEvery {
				t.Fatalf("%s: %d visits never left drift epoch 1", p.Name, a.started)
			}
			if p.PhaseEvery > 0 && p.PhaseEvery < n && a.started < 2*p.PhaseEvery {
				t.Fatalf("%s: %d visits never reached the scan phase", p.Name, a.started)
			}
		}
	}
}

// TestTemplatesConcurrentGenerators runs generators on one table from
// several goroutines (run under -race): the table is read-only, so each
// stream equals the serial one.
func TestTemplatesConcurrentGenerators(t *testing.T) {
	const n = 50_000
	p, err := ByName(SATSolver)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := mustTemplates(t, p, 1)
	newGen := func() (*Generator, error) { return tmpl.NewGenerator(1.0 / 16) }
	serial, err := newGen()
	if err != nil {
		t.Fatal(err)
	}
	want := draw(serial, n)

	got := make([][]memtrace.Record, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := newGen()
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = draw(g, n)
		}()
	}
	wg.Wait()
	for w, recs := range got {
		for i := range recs {
			if recs[i] != want[i] {
				t.Fatalf("goroutine %d: record %d = %+v, serial %+v", w, i, recs[i], want[i])
			}
		}
	}
}
