package synth

import (
	"math/bits"
	"reflect"
	"testing"

	"fpcache/internal/memtrace"
)

func testProfile() Profile {
	return Profile{
		Name: "test",
		Classes: []Class{
			{Weight: 0.3, MinBlocks: 1, MaxBlocks: 1},
			{Weight: 0.4, MinBlocks: 4, MaxBlocks: 7, Sequential: true},
			{Weight: 0.3, MinBlocks: 16, MaxBlocks: 31, Sequential: true},
		},
		PatternsPerClass: 8,
		DatasetBytes:     64 << 20,
		Concurrency:      640,
		RevisitFrac:      0.3,
		ZipfTheta:        0.3,
		WriteFrac:        0.3,
		RepeatFrac:       0.1,
		GapMean:          50,
		MLP:              2,
		Cores:            4,
	}
}

func mustGen(t *testing.T, p Profile, seed int64, scale float64) *Generator {
	t.Helper()
	g, err := NewGenerator(p, seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []func(*Profile){
		func(p *Profile) { p.Classes = nil },
		func(p *Profile) { p.Classes[0].Weight = -1 },
		func(p *Profile) { p.Classes[0].MinBlocks = 0 },
		func(p *Profile) { p.Classes[0].MinBlocks = 10; p.Classes[0].MaxBlocks = 5 },
		func(p *Profile) { p.Classes[1].MaxBlocks = 100 },
		func(p *Profile) { p.DatasetBytes = 100 },
		func(p *Profile) { p.Concurrency = 0 },
		func(p *Profile) { p.Cores = 0 },
		func(p *Profile) { p.Cores = 256 },
		func(p *Profile) { p.GapMean = 0 },
		// Records that cannot pack into a recording's 64 bits.
		func(p *Profile) { p.DatasetBytes = 1 << 62 },
		func(p *Profile) { p.GapMean = 1 << 40 },
		func(p *Profile) {
			for i := range p.Classes {
				p.Classes[i].Weight = 0
			}
		},
	}
	for i, mutate := range cases {
		p := testProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: bad profile accepted", i)
		}
	}
}

func TestGeneratorRejectsBadScale(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		if _, err := NewGenerator(testProfile(), 1, s); err == nil {
			t.Fatalf("scale %g accepted", s)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustGen(t, testProfile(), 42, 1)
	b := mustGen(t, testProfile(), 42, 1)
	ra := memtrace.Collect(&memtrace.Limit{Src: a, N: 5000}, 0)
	rb := memtrace.Collect(&memtrace.Limit{Src: b, N: 5000}, 0)
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("same seed produced different traces")
	}
	c := mustGen(t, testProfile(), 43, 1)
	rc := memtrace.Collect(&memtrace.Limit{Src: c, N: 5000}, 0)
	if reflect.DeepEqual(ra, rc) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestAddressesWithinDataset(t *testing.T) {
	g := mustGen(t, testProfile(), 1, 1)
	limit := memtrace.Addr(g.Regions() * RegionBytes)
	for i := 0; i < 20000; i++ {
		rec, _ := g.Next()
		if rec.Addr >= limit {
			t.Fatalf("address %#x beyond dataset end %#x", rec.Addr, limit)
		}
		if rec.Addr%64 != 0 {
			t.Fatalf("address %#x not block aligned", rec.Addr)
		}
	}
}

func TestCoresAndGapsInRange(t *testing.T) {
	p := testProfile()
	g := mustGen(t, p, 1, 1)
	seen := map[uint8]bool{}
	for i := 0; i < 20000; i++ {
		rec, _ := g.Next()
		if int(rec.Core) >= p.Cores {
			t.Fatalf("core %d out of range", rec.Core)
		}
		seen[rec.Core] = true
		if rec.Gap < 1 || rec.Gap > uint32(2*p.GapMean) {
			t.Fatalf("gap %d outside [1,%d]", rec.Gap, 2*p.GapMean)
		}
	}
	if len(seen) != p.Cores {
		t.Fatalf("saw %d cores, want %d", len(seen), p.Cores)
	}
}

func TestWriteFractionApproximate(t *testing.T) {
	p := testProfile()
	g := mustGen(t, p, 1, 1)
	writes := 0
	const n = 50000
	for i := 0; i < n; i++ {
		rec, _ := g.Next()
		if rec.Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < p.WriteFrac-0.05 || frac > p.WriteFrac+0.05 {
		t.Fatalf("write fraction %.3f, want ~%.2f", frac, p.WriteFrac)
	}
}

func TestTemplateDeterministicAndBanded(t *testing.T) {
	g := mustGen(t, testProfile(), 7, 1)
	for class := range g.prof.Classes {
		for pat := 0; pat < g.prof.PatternsPerClass; pat++ {
			bits1, order1 := g.template(class, pat, 0)
			bits2, order2 := g.template(class, pat, 0)
			if bits1 != bits2 || !reflect.DeepEqual(order1, order2) {
				t.Fatal("template not deterministic")
			}
			c := g.prof.Classes[class]
			n := len(order1)
			if n < c.MinBlocks || n > c.MaxBlocks {
				t.Fatalf("class %d template size %d outside [%d,%d]", class, n, c.MinBlocks, c.MaxBlocks)
			}
			// Template confined to one 2KB half (32-block window).
			half := order1[0] / 32
			for _, b := range order1 {
				if b/32 != half {
					t.Fatalf("template crosses the half-region boundary")
				}
			}
		}
	}
}

func TestTemplateEpochDrift(t *testing.T) {
	g := mustGen(t, testProfile(), 7, 1)
	bits0, _ := g.template(1, 3, 0)
	bits1, _ := g.template(1, 3, 1)
	if bits0 == bits1 {
		t.Fatal("epoch change did not alter the template")
	}
}

func TestFullRegionClass(t *testing.T) {
	p := testProfile()
	p.Classes = []Class{{Weight: 1, FullRegion: true}}
	g := mustGen(t, p, 1, 1)
	bits, order := g.template(0, 0, 0)
	if bits != ^uint64(0) || len(order) != BlocksPerRegion {
		t.Fatal("full-region template wrong")
	}
}

func TestRegionPatternAffinity(t *testing.T) {
	// The same region must be visited by the same footprint most of
	// the time — this is the code/data correlation the predictor
	// needs. Track the footprint used per region and measure how
	// often it repeats on revisits.
	p := testProfile()
	p.RevisitFrac = 0.5
	g := mustGen(t, p, 3, 1)
	type key struct{ region int64 }
	seen := map[key]memtrace.PC{}
	match, revisit := 0, 0
	for i := 0; i < 200000; i++ {
		rec, _ := g.Next()
		region := int64(rec.Addr) / RegionBytes
		k := key{region}
		if pc, ok := seen[k]; ok {
			if rec.PC == pc {
				match++
			}
			revisit++
		} else {
			seen[k] = rec.PC
		}
	}
	if revisit == 0 {
		t.Fatal("no revisits observed")
	}
	if frac := float64(match) / float64(revisit); frac < 0.8 {
		t.Fatalf("region/pattern affinity only %.2f, want >= 0.8", frac)
	}
}

func TestBurstsClusterPerCore(t *testing.T) {
	p := testProfile()
	p.BurstLen = 8
	g := mustGen(t, p, 1, 1)
	// Consecutive records should frequently share a core (burst
	// emission), far above the 1/cores baseline.
	same := 0
	var prev memtrace.Record
	const n = 20000
	for i := 0; i < n; i++ {
		rec, _ := g.Next()
		if i > 0 && rec.Core == prev.Core {
			same++
		}
		prev = rec
	}
	if frac := float64(same) / n; frac < 0.5 {
		t.Fatalf("burst clustering %.2f, want >= 0.5", frac)
	}
}

func TestWorkloadRegistry(t *testing.T) {
	if len(Names()) != 7 {
		t.Fatalf("workload count = %d", len(Names()))
	}
	if got := sortedNames(); len(got) != len(Names()) {
		t.Fatalf("registry/Names drift: %v vs %v", got, Names())
	}
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.MLP < 1 || p.GapMean < 1 {
			t.Fatalf("%s: MLP/gap unset", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if got := len(All()); got != 7 {
		t.Fatalf("All() = %d profiles", got)
	}
}

func TestScaleShrinksDataset(t *testing.T) {
	p := testProfile()
	full := mustGen(t, p, 1, 1)
	small := mustGen(t, p, 1, 0.25)
	if small.Regions() >= full.Regions() {
		t.Fatalf("scale did not shrink dataset: %d vs %d", small.Regions(), full.Regions())
	}
	if small.Profile().Concurrency >= full.Profile().Concurrency {
		t.Fatal("scale did not shrink concurrency")
	}
}

func TestDensityMixesDiffer(t *testing.T) {
	// MapReduce must be singleton-heavy relative to Web Search — the
	// structural contrast behind Figure 4.
	count := func(name string) (singles, dense int) {
		p, _ := ByName(name)
		g := mustGen(t, p, 1, 1.0/32)
		for i := 0; i < 50000; i++ {
			g.Next()
		}
		// Inspect active visits' template sizes.
		for _, v := range g.active {
			if len(v.blocks) == 1 {
				singles++
			}
			if bits.OnesCount64(v.emitted)+len(v.blocks)-v.next >= 16 {
				dense++
			}
		}
		return
	}
	mrS, _ := count(MapReduce)
	wsS, _ := count(WebSearch)
	if mrS <= wsS {
		t.Fatalf("MapReduce singleton visits (%d) not above Web Search (%d)", mrS, wsS)
	}
}

func TestZipfSkewConcentratesAccesses(t *testing.T) {
	p := testProfile()
	p.ZipfTheta = 0.9
	p.RevisitFrac = 0
	skewed := mustGen(t, p, 1, 1)
	p2 := testProfile()
	p2.ZipfTheta = 0
	p2.RevisitFrac = 0
	uniform := mustGen(t, p2, 1, 1)

	distinct := func(g *Generator) int {
		seen := map[int64]bool{}
		for i := 0; i < 30000; i++ {
			rec, _ := g.Next()
			seen[int64(rec.Addr)/RegionBytes] = true
		}
		return len(seen)
	}
	if distinct(skewed) >= distinct(uniform) {
		t.Fatal("zipf skew did not concentrate the reference stream")
	}
}
