package dcache

import (
	"math/rand"
	"testing"

	"fpcache/internal/memtrace"
)

func read(addr memtrace.Addr) memtrace.Record {
	return memtrace.Record{PC: 0x400000, Addr: addr}
}

func write(addr memtrace.Addr) memtrace.Record {
	return memtrace.Record{PC: 0x400000, Addr: addr, Write: true}
}

func checkOps(t *testing.T, d Design, rec memtrace.Record) Outcome {
	t.Helper()
	out := d.Access(rec, nil)
	if err := ValidateOps(out.Ops); err != nil {
		t.Fatalf("%s: invalid ops for %+v: %v", d.Name(), rec, err)
	}
	return out
}

func TestBaselineAlwaysMisses(t *testing.T) {
	b := NewBaseline()
	out := checkOps(t, b, read(0x1000))
	if out.Hit || len(out.Ops) != 1 || out.Ops[0].Level != OffChip {
		t.Fatalf("baseline read outcome: %+v", out)
	}
	if !out.Ops[0].Critical {
		t.Fatal("baseline read not critical")
	}
	out = checkOps(t, b, write(0x1000))
	if out.Ops[0].Critical || !out.Ops[0].Write {
		t.Fatal("baseline write should be a posted off-chip write")
	}
	c := b.Counters()
	if c.Misses != 2 || c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("counters: %+v", c)
	}
	if b.MetadataBits() != 0 {
		t.Fatal("baseline has metadata")
	}
}

func TestIdealAlwaysHits(t *testing.T) {
	d := NewIdeal()
	out := checkOps(t, d, read(0x1000))
	if !out.Hit || out.Ops[0].Level != Stacked {
		t.Fatalf("ideal outcome: %+v", out)
	}
	if d.Counters().Hits != 1 {
		t.Fatal("ideal did not count a hit")
	}
}

func TestCountersSub(t *testing.T) {
	a := Counters{Reads: 10, Writes: 5, Hits: 8, Misses: 7, Bypasses: 1, PageAllocs: 3, PageEvicts: 2, DirtyEvicts: 1}
	if diff := a.Sub(Counters{Reads: 4, Hits: 3}); diff.Reads != 6 || diff.Hits != 5 || diff.Writes != 5 {
		t.Fatalf("Sub = %+v", diff)
	}
	if a.Accesses() != 15 {
		t.Fatalf("Accesses = %d", a.Accesses())
	}
	if mr := a.MissRatio(); mr < 0.46 || mr > 0.47 {
		t.Fatalf("MissRatio = %g", mr)
	}
	var zero Counters
	if zero.MissRatio() != 0 || zero.HitRatio() != 0 {
		t.Fatal("zero counters should yield zero ratios")
	}
}

func TestValidateOps(t *testing.T) {
	good := []Op{
		{Level: OffChip, Bytes: 64, Critical: true, DependsOn: NoDep},
		{Level: Stacked, Bytes: 128, DependsOn: 0},
	}
	if err := ValidateOps(good); err != nil {
		t.Fatal(err)
	}
	bad := [][]Op{
		{{Bytes: 64, DependsOn: 0}},      // self/forward dep
		{{Bytes: 0, DependsOn: NoDep}},   // empty
		{{Bytes: 100, DependsOn: NoDep}}, // not 64B multiple
		{{Bytes: 64, DependsOn: NoDep}, {Bytes: 64, Critical: true, DependsOn: 0}}, // critical on non-critical
	}
	for i, ops := range bad {
		if err := ValidateOps(ops); err == nil {
			t.Fatalf("bad ops %d accepted", i)
		}
	}
}

func geom() PageGeometry {
	return PageGeometry{CapacityBytes: 1 << 20, PageBytes: 2048, Ways: 16}
}

func TestPageGeometryValidate(t *testing.T) {
	if _, _, err := geom().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []PageGeometry{
		{CapacityBytes: 1 << 20, PageBytes: 1000, Ways: 16},
		{CapacityBytes: 1 << 20, PageBytes: 2048, Ways: 0},
		{CapacityBytes: 4096, PageBytes: 2048, Ways: 16},
		{CapacityBytes: 1 << 20, PageBytes: 8192, Ways: 16}, // >64 blocks
	}
	for i, g := range bad {
		if _, _, err := g.Validate(); err == nil {
			t.Fatalf("bad geometry %d accepted: %+v", i, g)
		}
	}
}

// newPageEngine composes a page-direct engine over geom() with the
// given allocation policy, as BuildDesign does for the paper's
// page-granularity kinds.
func newPageEngine(t *testing.T, name string, alloc AllocPolicy, tagCycles int) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Name: name, Geometry: geom(), TagCycles: tagCycles,
		Alloc: alloc, Mapping: PageDirectMapping{PageBytes: geom().PageBytes},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// newPage is the page-based design (§2.3): whole-page allocation.
func newPage(t *testing.T) *Engine { return newPageEngine(t, "page", PageAlloc{}, 6) }

func TestPageCacheMissFillsWholePage(t *testing.T) {
	p := newPage(t)
	out := checkOps(t, p, read(0x10040))
	if out.Hit {
		t.Fatal("cold access hit")
	}
	// Ops: critical 64B read + (2048-64) remainder + 2048 stacked fill.
	var offBytes, stkBytes int
	for _, op := range out.Ops {
		if op.Level == OffChip {
			offBytes += op.Bytes
		} else {
			stkBytes += op.Bytes
		}
	}
	if offBytes != 2048 || stkBytes != 2048 {
		t.Fatalf("fill moved off=%d stk=%d, want 2048/2048", offBytes, stkBytes)
	}
	if out.TagCycles != 6 {
		t.Fatalf("tag cycles = %d", out.TagCycles)
	}
	// Any block of the same page now hits.
	out = checkOps(t, p, read(0x10000))
	if !out.Hit || len(out.Ops) != 1 || out.Ops[0].Bytes != 64 || out.Ops[0].Level != Stacked {
		t.Fatalf("page hit outcome: %+v", out)
	}
}

func TestPageCacheDirtyEvictionWritesDirtyBlocksOnly(t *testing.T) {
	p := newPage(t)
	sets := p.sets
	// Fill one set completely with writes (1 dirty block each), then
	// one more page to force an eviction.
	pageStride := memtrace.Addr(2048 * sets)
	for i := 0; i <= 16; i++ {
		checkOps(t, p, write(memtrace.Addr(i)*pageStride))
	}
	c := p.Counters()
	if c.PageEvicts != 1 || c.DirtyEvicts != 1 {
		t.Fatalf("evictions: %+v", c)
	}
}

func TestPageCacheCleanEvictionSilent(t *testing.T) {
	p := newPage(t)
	sets := p.sets
	pageStride := memtrace.Addr(2048 * sets)
	for i := 0; i < 16; i++ {
		checkOps(t, p, read(memtrace.Addr(i)*pageStride))
	}
	out := checkOps(t, p, read(memtrace.Addr(16)*pageStride))
	// Eviction of a clean page must not add any writeback op: only
	// the 3 fill ops.
	if len(out.Ops) != 3 {
		t.Fatalf("clean eviction emitted %d ops", len(out.Ops))
	}
	if p.Counters().DirtyEvicts != 0 {
		t.Fatal("clean eviction counted dirty")
	}
}

func TestPageCacheDensityObserver(t *testing.T) {
	p := newPage(t)
	var densities []int
	p.OnEvict = func(d, blocks int) {
		if blocks != 32 {
			t.Fatalf("page blocks = %d", blocks)
		}
		densities = append(densities, d)
	}
	sets := p.sets
	pageStride := memtrace.Addr(2048 * sets)
	// Touch 3 blocks of page 0, then flood the set.
	checkOps(t, p, read(0))
	checkOps(t, p, read(64))
	checkOps(t, p, read(128))
	for i := 1; i <= 16; i++ {
		checkOps(t, p, read(memtrace.Addr(i)*pageStride))
	}
	if len(densities) != 1 || densities[0] != 3 {
		t.Fatalf("densities = %v, want [3]", densities)
	}
}

func TestPageCacheWriteMissSkipsCriticalFetch(t *testing.T) {
	p := newPage(t)
	out := checkOps(t, p, write(0x4000))
	for _, op := range out.Ops {
		if op.Critical {
			t.Fatalf("write miss has critical op: %+v", op)
		}
	}
	// Off-chip fetch is the page remainder only.
	var offBytes int
	for _, op := range out.Ops {
		if op.Level == OffChip && !op.Write {
			offBytes += op.Bytes
		}
	}
	if offBytes != 2048-64 {
		t.Fatalf("write miss fetched %d off-chip bytes, want %d", offBytes, 2048-64)
	}
}

func TestPageCacheMetadataFormula(t *testing.T) {
	// Paper Table 4: 64MB page-based tags = 0.22MB. Entry = 18b tag +
	// 1 valid + 4 LRU + 32 dirty = 55 bits x 32K pages.
	g := PageGeometry{CapacityBytes: 64 << 20, PageBytes: 2048, Ways: 16}
	mb := float64(PageMetadataBits(g)) / 8 / (1 << 20)
	if mb < 0.18 || mb > 0.26 {
		t.Fatalf("64MB page tags = %.3fMB, want ~0.22MB", mb)
	}
}

// newSub is the sub-blocked design (§3.1): page tags, demand-fetched
// blocks.
func newSub(t *testing.T) *Engine { return newPageEngine(t, "subblock", DemandAlloc{}, 4) }

func TestSubblockFetchesOnDemandOnly(t *testing.T) {
	s := newSub(t)
	// First touch: page miss, fetch one block.
	out := checkOps(t, s, read(0x8000))
	var offBytes int
	for _, op := range out.Ops {
		if op.Level == OffChip {
			offBytes += op.Bytes
		}
	}
	if offBytes != 64 {
		t.Fatalf("page miss fetched %d bytes, want 64 (no overprediction)", offBytes)
	}
	// Different block, same page: block miss, another 64B.
	out = checkOps(t, s, read(0x8040))
	if out.Hit {
		t.Fatal("unfetched block hit")
	}
	// Same block again: hit.
	out = checkOps(t, s, read(0x8040))
	if !out.Hit {
		t.Fatal("fetched block missed")
	}
	c := s.Counters()
	if c.Misses != 2 || c.Hits != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestSubblockEvictionWritesDirtyBlocks(t *testing.T) {
	s := newSub(t)
	sets := s.sets
	pageStride := memtrace.Addr(2048 * sets)
	checkOps(t, s, write(0))
	checkOps(t, s, write(64))
	for i := 1; i <= 16; i++ {
		checkOps(t, s, read(memtrace.Addr(i)*pageStride))
	}
	c := s.Counters()
	if c.DirtyEvicts != 1 {
		t.Fatalf("dirty evicts = %d", c.DirtyEvicts)
	}
}

func TestDesignsProduceValidOpsUnderRandomTraffic(t *testing.T) {
	designs := []Design{
		NewBaseline(),
		NewIdeal(),
		newPage(t),
		newSub(t),
		mustBlock(t),
		mustHot(t),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30000; i++ {
		rec := memtrace.Record{
			PC:    memtrace.PC(0x400000 + rng.Intn(64)*4),
			Addr:  memtrace.Addr(rng.Intn(1<<22) * 64),
			Write: rng.Intn(3) == 0,
		}
		for _, d := range designs {
			out := d.Access(rec, nil)
			if err := ValidateOps(out.Ops); err != nil {
				t.Fatalf("%s at ref %d: %v", d.Name(), i, err)
			}
		}
	}
	// Sanity: hits+misses == accesses for every design.
	for _, d := range designs {
		c := d.Counters()
		if c.Hits+c.Misses != c.Accesses() {
			t.Fatalf("%s: hits %d + misses %d != accesses %d", d.Name(), c.Hits, c.Misses, c.Accesses())
		}
	}
}
