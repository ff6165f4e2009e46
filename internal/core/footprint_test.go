package core

import (
	"math/rand"
	"testing"

	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
)

// testConfig: 1MB cache, 2KB pages, 16 ways, small FHT/ST, singleton
// optimization on.
func testConfig() Config {
	cfg := Default(1 << 20)
	cfg.FHTEntries = 1024
	cfg.FHTWays = 8
	cfg.STEntries = 64
	cfg.STWays = 4
	return cfg
}

// fpEngine is the Footprint design as BuildDesign composes it: the
// footprint allocation policy on a page-direct engine.
type fpEngine struct {
	*dcache.Engine
	fp   *FootprintPolicy
	sets int
}

func newFootprint(cfg Config) (*fpEngine, error) {
	fp, err := NewFootprintPolicy(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := dcache.NewEngine(dcache.EngineConfig{
		Name: cfg.VariantName(), Geometry: cfg.Geometry, TagCycles: 9,
		Alloc: fp, Mapping: dcache.PageDirectMapping{PageBytes: cfg.Geometry.PageBytes},
	})
	if err != nil {
		return nil, err
	}
	return &fpEngine{Engine: eng, fp: fp, sets: eng.LiveSets()}, nil
}

func mustCache(t *testing.T, cfg Config) *fpEngine {
	t.Helper()
	c, err := newFootprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func read(pc memtrace.PC, addr memtrace.Addr) memtrace.Record {
	return memtrace.Record{PC: pc, Addr: addr}
}

func write(pc memtrace.PC, addr memtrace.Addr) memtrace.Record {
	return memtrace.Record{PC: pc, Addr: addr, Write: true}
}

func access(t *testing.T, c *fpEngine, rec memtrace.Record) dcache.Outcome {
	t.Helper()
	out := c.Access(rec, nil)
	if err := dcache.ValidateOps(out.Ops); err != nil {
		t.Fatalf("invalid ops: %v", err)
	}
	return out
}

// floodSet evicts everything in page 0's set by touching two blocks
// of each of pages [from..to] at the given stride. Two blocks keep
// the dummy visits from being classified as singletons (which would
// bypass allocation and defeat the flood).
func floodSet(t *testing.T, c *fpEngine, from, to int, pageStride memtrace.Addr) {
	t.Helper()
	for i := from; i <= to; i++ {
		base := memtrace.Addr(i) * pageStride
		access(t, c, read(0x500000, base))
		access(t, c, read(0x500000, base+64))
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.FHTEntries = 10
	if _, err := newFootprint(bad); err == nil {
		t.Fatal("bad FHT geometry accepted")
	}
	bad = testConfig()
	bad.STEntries = 3
	if _, err := newFootprint(bad); err == nil {
		t.Fatal("bad ST geometry accepted")
	}
	bad = testConfig()
	bad.Geometry.PageBytes = 100
	if _, err := newFootprint(bad); err == nil {
		t.Fatal("bad page size accepted")
	}
}

func TestColdMissFetchesDemandedBlockOnly(t *testing.T) {
	c := mustCache(t, testConfig())
	out := access(t, c, read(0x400000, 0x10040))
	if out.Hit || out.Bypass {
		t.Fatalf("cold miss outcome: %+v", out)
	}
	var offBytes int
	for _, op := range out.Ops {
		if op.Level == dcache.OffChip {
			offBytes += op.Bytes
		}
	}
	if offBytes != 64 {
		t.Fatalf("cold (unknown footprint) miss fetched %d bytes, want 64", offBytes)
	}
	if c.fp.Extra().FHTCold != 1 {
		t.Fatal("cold miss not counted")
	}
}

func TestLearnedFootprintPrefetched(t *testing.T) {
	cfg := testConfig()
	cfg.SingletonOpt = false
	c := mustCache(t, cfg)
	pc := memtrace.PC(0x400100)
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets) // same set, different tag

	// Visit page 0 with a 4-block footprint starting at block 2.
	for b := 2; b < 6; b++ {
		access(t, c, read(pc, memtrace.Addr(b*64)))
	}
	// Evict page 0 by filling its set (dummy pages from other PCs).
	for i := 1; i <= 16; i++ {
		access(t, c, read(0x500000, memtrace.Addr(i)*pageStride))
	}
	// Re-trigger the same (PC, offset) on a fresh page: the learned
	// 4-block footprint must be fetched at once.
	out := access(t, c, read(pc, memtrace.Addr(17)*pageStride+2*64))
	var offBytes int
	for _, op := range out.Ops {
		if op.Level == dcache.OffChip {
			offBytes += op.Bytes
		}
	}
	if offBytes != 4*64 {
		t.Fatalf("predicted fetch = %d bytes, want %d", offBytes, 4*64)
	}
	// The prefetched blocks now hit without further misses.
	for b := 3; b < 6; b++ {
		out := access(t, c, read(pc, memtrace.Addr(17)*pageStride+memtrace.Addr(b*64)))
		if !out.Hit {
			t.Fatalf("prefetched block %d missed", b)
		}
	}
}

func TestUnderpredictionFetchesSingleBlock(t *testing.T) {
	c := mustCache(t, testConfig())
	access(t, c, read(0x400000, 0)) // page resident with block 0 only
	out := access(t, c, read(0x400000, 8*64))
	if out.Hit || out.Bypass {
		t.Fatalf("unpredicted block outcome: %+v", out)
	}
	if c.fp.Extra().UnderpredMisses != 1 {
		t.Fatalf("underpred misses = %d", c.fp.Extra().UnderpredMisses)
	}
	// Block is now demanded and hits.
	if !access(t, c, read(0x400000, 8*64)).Hit {
		t.Fatal("fetched block missed")
	}
}

func TestWriteMissCarriesData(t *testing.T) {
	c := mustCache(t, testConfig())
	out := access(t, c, write(0x400000, 0x20000))
	for _, op := range out.Ops {
		if op.Level == dcache.OffChip && !op.Write {
			t.Fatalf("write miss read from memory: %+v", op)
		}
		if op.Critical {
			t.Fatalf("write miss has critical op: %+v", op)
		}
	}
}

func TestSingletonBypassAndCorrection(t *testing.T) {
	c := mustCache(t, testConfig())
	pc := memtrace.PC(0x400800)
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets)

	// Teach the FHT that this (PC, offset) is a singleton: visit a
	// page, touch one block, evict.
	access(t, c, read(pc, 0))
	floodSet(t, c, 1, 16, pageStride)

	// Next trigger from the same key: predicted singleton, bypassed.
	// (The flood itself performs one learning bypass+correction cycle,
	// so assert on deltas.)
	pre := c.fp.Extra()
	out := access(t, c, read(pc, memtrace.Addr(17)*pageStride))
	if !out.Bypass {
		t.Fatalf("predicted singleton not bypassed: %+v", out)
	}
	if got := c.fp.Extra().SingletonBypasses - pre.SingletonBypasses; got != 1 {
		t.Fatalf("bypass delta = %d", got)
	}
	if len(out.Ops) != 1 || out.Ops[0].Level != dcache.OffChip || out.Ops[0].Bytes != 64 {
		t.Fatalf("bypass ops: %+v", out.Ops)
	}

	// A second access to the bypassed page with a different offset is
	// the ST-correction path: the page must now be allocated.
	out = access(t, c, read(0x400900, memtrace.Addr(17)*pageStride+5*64))
	if out.Bypass {
		t.Fatal("second access to bypassed page bypassed again")
	}
	if got := c.fp.Extra().STCorrections - pre.STCorrections; got != 1 {
		t.Fatalf("ST correction delta = %d", got)
	}
	// Both the original singleton block and the new one were fetched.
	if !access(t, c, read(0x400900, memtrace.Addr(17)*pageStride)).Hit {
		t.Fatal("ST-corrected original block not fetched")
	}
}

func TestSingletonOptDisabledAllocates(t *testing.T) {
	cfg := testConfig()
	cfg.SingletonOpt = false
	c := mustCache(t, cfg)
	pc := memtrace.PC(0x400800)
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets)
	access(t, c, read(pc, 0))
	floodSet(t, c, 1, 16, pageStride)
	out := access(t, c, read(pc, memtrace.Addr(17)*pageStride))
	if out.Bypass {
		t.Fatal("bypass happened with optimization disabled")
	}
	if c.fp.Extra().SingletonBypasses != 0 {
		t.Fatal("bypass counted with optimization disabled")
	}
}

func TestEvictionFeedbackAccuracyCounters(t *testing.T) {
	cfg := testConfig()
	cfg.SingletonOpt = false
	c := mustCache(t, cfg)
	pc := memtrace.PC(0x400100)
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets)

	// Learn footprint {0,1}; revisit touches {0,2}: at the second
	// eviction covered=1 (block 0), under=1 (block 2), over=1 (block 1).
	access(t, c, read(pc, 0))
	access(t, c, read(pc, 64))
	for i := 1; i <= 16; i++ {
		access(t, c, read(0x500000, memtrace.Addr(i)*pageStride))
	}
	pre := c.fp.Extra()
	access(t, c, read(pc, memtrace.Addr(17)*pageStride))      // trigger: predicts {0,1}
	access(t, c, read(pc, memtrace.Addr(17)*pageStride+2*64)) // underpred block 2
	for i := 18; i <= 34; i++ {
		access(t, c, read(0x500000, memtrace.Addr(i)*pageStride))
	}
	post := c.fp.Extra().Sub(pre)
	if post.CoveredBlocks < 1 || post.UnderBlocks < 1 || post.OverBlocks < 1 {
		t.Fatalf("accuracy counters: %+v", post)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := mustCache(t, testConfig())
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets)
	access(t, c, write(0x400000, 0))
	floodSet(t, c, 1, 17, pageStride)
	if c.Counters().PageEvicts == 0 {
		t.Fatal("flood failed to evict")
	}
	if c.Counters().DirtyEvicts == 0 {
		t.Fatal("dirty eviction not counted")
	}
}

func TestDensityObserver(t *testing.T) {
	c := mustCache(t, testConfig())
	var got []int
	c.OnEvict = func(d, blocks int) { got = append(got, d) }
	sets := c.sets
	pageStride := memtrace.Addr(2048 * sets)
	access(t, c, read(0x400000, 0))
	access(t, c, read(0x400000, 64))
	floodSet(t, c, 1, 17, pageStride)
	if len(got) == 0 || got[0] != 2 {
		t.Fatalf("densities = %v, want first=2", got)
	}
}

func TestMetadataBudgetMatchesTable4(t *testing.T) {
	// Paper Table 4: 64MB Footprint tags = 0.40MB (we include the FHT
	// and ST in the budget, so allow a little headroom).
	cfg := Default(64 << 20)
	mb := float64(MetadataBits(cfg)) / 8 / (1 << 20)
	if mb < 0.35 || mb > 0.60 {
		t.Fatalf("64MB footprint metadata = %.3fMB, want ~0.40-0.55MB", mb)
	}
	// 512MB = 3.12MB in the paper.
	cfg = Default(512 << 20)
	mb = float64(MetadataBits(cfg)) / 8 / (1 << 20)
	if mb < 2.8 || mb > 3.5 {
		t.Fatalf("512MB footprint metadata = %.2fMB, want ~3.12MB", mb)
	}
}

func TestCountersConsistentUnderRandomTraffic(t *testing.T) {
	c := mustCache(t, testConfig())
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200000; i++ {
		rec := memtrace.Record{
			PC:    memtrace.PC(0x400000 + rng.Intn(128)*4),
			Addr:  memtrace.Addr(rng.Intn(1<<22) * 64),
			Write: rng.Intn(3) == 0,
		}
		out := c.Access(rec, nil)
		if err := dcache.ValidateOps(out.Ops); err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
	}
	ctr := c.Counters()
	if ctr.Hits+ctr.Misses != ctr.Accesses() {
		t.Fatalf("hits+misses != accesses: %+v", ctr)
	}
	if ctr.Bypasses > ctr.Misses {
		t.Fatalf("bypasses exceed misses: %+v", ctr)
	}
	ex := c.fp.Extra()
	if ex.UnderpredMisses+ex.SingletonBypasses+ex.FHTCold > ctr.Misses {
		t.Fatalf("miss decomposition exceeds misses: %+v vs %d", ex, ctr.Misses)
	}
	q, cold, upd := c.fp.FHTStats()
	if cold > q {
		t.Fatalf("FHT cold %d > queries %d", cold, q)
	}
	if upd == 0 {
		t.Fatal("FHT never updated despite evictions")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() dcache.Counters {
		c := mustCache(t, testConfig())
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 50000; i++ {
			c.Access(memtrace.Record{
				PC:    memtrace.PC(0x400000 + rng.Intn(64)*4),
				Addr:  memtrace.Addr(rng.Intn(1<<20) * 64),
				Write: rng.Intn(4) == 0,
			}, nil)
		}
		return c.Counters()
	}
	if run() != run() {
		t.Fatal("identical traces produced different counters")
	}
}

func TestFeedbackUnionGrowsFootprints(t *testing.T) {
	// With union feedback, a key that alternates between two
	// footprints converges to their union; with replace it keeps
	// flipping. Drive both configurations through the same sequence
	// and compare the third-round fetch size.
	run := func(policy FeedbackPolicy) int {
		cfg := testConfig()
		cfg.SingletonOpt = false
		cfg.Feedback = policy
		c := mustCache(t, cfg)
		pc := memtrace.PC(0x400100)
		sets := c.sets
		pageStride := memtrace.Addr(2048 * sets)
		// Round 1 on page A: blocks {0,1}. Round 2 on page B: {0,2}.
		access(t, c, read(pc, 0))
		access(t, c, read(pc, 64))
		floodSet(t, c, 1, 16, pageStride)
		access(t, c, read(pc, memtrace.Addr(17)*pageStride))
		access(t, c, read(pc, memtrace.Addr(17)*pageStride+2*64))
		floodSet(t, c, 18, 34, pageStride)
		// Round 3: count fetched bytes.
		out := access(t, c, read(pc, memtrace.Addr(35)*pageStride))
		bytes := 0
		for _, op := range out.Ops {
			if op.Level == dcache.OffChip {
				bytes += op.Bytes
			}
		}
		return bytes
	}
	union := run(FeedbackUnion)
	replace := run(FeedbackReplace)
	if union <= replace {
		t.Fatalf("union fetch %dB not above replace %dB", union, replace)
	}
	if union != 3*64 { // {0,1,2}
		t.Fatalf("union fetch = %dB, want 192", union)
	}
}

func TestFeedbackPolicyString(t *testing.T) {
	if FeedbackReplace.String() != "replace" || FeedbackUnion.String() != "union" {
		t.Fatal("FeedbackPolicy.String wrong")
	}
}

func TestNameAndInterface(t *testing.T) {
	cfg := testConfig()
	var d dcache.Design = mustCache(t, cfg)
	if d.Name() != "footprint" {
		t.Fatalf("Name = %q", d.Name())
	}
	cfg.Feedback = FeedbackUnion
	if got := mustCache(t, cfg).fp.Name(); got != "footprint-union" {
		t.Fatalf("union variant Name = %q", got)
	}
	cfg.SingletonOpt = false
	if got := mustCache(t, cfg).fp.Name(); got != "footprint-nosingleton" {
		t.Fatalf("no-singleton variant Name = %q", got)
	}
}
