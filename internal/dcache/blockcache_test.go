package dcache

import (
	"math/rand"
	"testing"
	"unsafe"

	"fpcache/internal/memtrace"
	"fpcache/internal/sram"
)

func mustBlock(t *testing.T) *BlockCache {
	t.Helper()
	b, err := NewBlockCache(BlockCacheConfig{
		CapacityBytes:  1 << 20, // 512 rows x 30 blocks
		MissMapEntries: 1024,
		MissMapWays:    8,
		TagCycles:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTagEntrySize pins the set-associative entry layout: the block
// design's tag array holds one entry per cached 64B block (about a
// quarter of a million for a 256MB point at the default 1/16 scale), so
// a field added to sram.Entry shows up here rather than in a sweep's
// peak RSS.
func TestTagEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(sram.Entry[blockMeta]{}); got != 24 {
		t.Errorf("sram.Entry[blockMeta] is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(sram.Entry[uint64]{}); got != 32 {
		t.Errorf("sram.Entry[uint64] is %d bytes, want 32", got)
	}
}

func TestBlockCacheConfigValidation(t *testing.T) {
	if _, err := NewBlockCache(BlockCacheConfig{CapacityBytes: 100, MissMapEntries: 8, MissMapWays: 8}); err == nil {
		t.Fatal("sub-row capacity accepted")
	}
	if _, err := NewBlockCache(BlockCacheConfig{CapacityBytes: 1 << 20, MissMapEntries: 10, MissMapWays: 8}); err == nil {
		t.Fatal("indivisible missmap accepted")
	}
}

func TestBlockCacheMissThenHit(t *testing.T) {
	b := mustBlock(t)
	out := b.Access(read(0x4000), nil)
	if out.Hit {
		t.Fatal("cold access hit")
	}
	if err := ValidateOps(out.Ops); err != nil {
		t.Fatal(err)
	}
	// Miss fetches exactly one 64B block off-chip.
	var offRead int
	for _, op := range out.Ops {
		if op.Level == OffChip && !op.Write {
			offRead += op.Bytes
		}
	}
	if offRead != 64 {
		t.Fatalf("miss fetched %d off-chip bytes", offRead)
	}

	out = b.Access(read(0x4000), nil)
	if !out.Hit {
		t.Fatal("refetched block missed")
	}
	// Hit = one compound in-DRAM access: 3 CAS under one activation
	// (tag read + data + tag update), modelled as a single 192B row op.
	if len(out.Ops) != 1 || out.Ops[0].Level != Stacked || out.Ops[0].Bytes != 192 {
		t.Fatalf("hit ops: %+v", out.Ops)
	}
	if out.TagCycles != 9 {
		t.Fatalf("MissMap latency = %d", out.TagCycles)
	}
}

func TestBlockCacheWriteMissInstallsWithoutFetch(t *testing.T) {
	b := mustBlock(t)
	out := b.Access(write(0x9000), nil)
	for _, op := range out.Ops {
		if op.Level == OffChip {
			t.Fatalf("write miss touched off-chip: %+v", op)
		}
	}
	if !b.Access(read(0x9000), nil).Hit {
		t.Fatal("installed write not present")
	}
}

func TestBlockCacheDirtyEviction(t *testing.T) {
	b := mustBlock(t)
	rows := b.rows
	// Fill one row set (30 ways) with dirty blocks, then overflow it.
	for i := 0; i <= DataBlocksPerRow; i++ {
		addr := memtrace.Addr(i * rows * 64) // same set every time
		b.Access(write(addr), nil)
	}
	c := b.Counters()
	if c.DirtyEvicts == 0 {
		t.Fatal("no dirty eviction after overfilling a set")
	}
}

func TestBlockCacheMissMapForcedEviction(t *testing.T) {
	b := mustBlock(t)
	// Touch more distinct 4KB regions than the MissMap can hold (at a
	// varying block offset so cached blocks spread across row sets);
	// the overflow must force-evict cached blocks.
	entries := b.missMap.Sets() * b.missMap.Ways()
	for i := 0; i < entries*2; i++ {
		b.Access(read(memtrace.Addr(i*regionBytes+(i%blocksPerRegion)*64)), nil)
	}
	if b.ForcedEvicts == 0 {
		t.Fatal("MissMap overflow produced no forced evictions")
	}
	// Invariant: every MissMap presence bit has a matching cached
	// block (Access panics on divergence; re-touch to exercise).
	for i := 0; i < entries*2; i += 7 {
		b.Access(read(memtrace.Addr(i*regionBytes)), nil)
	}
}

func TestBlockCacheMissMapConsistencyUnderRandomTraffic(t *testing.T) {
	b := mustBlock(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		addr := memtrace.Addr(rng.Intn(1<<20) * 64)
		rec := memtrace.Record{Addr: addr, Write: rng.Intn(4) == 0}
		out := b.Access(rec, nil) // panics on missmap/tag divergence
		if err := ValidateOps(out.Ops); err != nil {
			t.Fatal(err)
		}
	}
	// Cross-check: every presence bit in the MissMap corresponds to a
	// valid block tag in the in-DRAM tag model.
	checked := 0
	b.missMap.Range(func(set int, e *sram.Entry[uint64]) {
		region := e.Tag*uint64(b.mmSets) + uint64(set)
		for i := 0; i < blocksPerRegion; i++ {
			if e.Value&(1<<i) == 0 {
				continue
			}
			addr := memtrace.Addr(region*regionBytes + uint64(i*64))
			bset, btag, _ := b.blockIndex(addr)
			if b.blocks.Peek(bset, btag) == nil {
				t.Fatalf("presence bit without cached block at %#x", addr)
			}
			checked++
		}
	})
	if checked == 0 {
		t.Fatal("consistency cross-check saw no blocks")
	}
}

func TestMissMapParams(t *testing.T) {
	e, w, l := MissMapParams(64)
	if e != 192*1024 || w != 24 || l != 9 {
		t.Fatalf("64MB params: %d %d %d", e, w, l)
	}
	e, w, l = MissMapParams(512)
	if e != 288*1024 || w != 36 || l != 11 {
		t.Fatalf("512MB params: %d %d %d", e, w, l)
	}
}

func TestBlockMetadataFormula(t *testing.T) {
	// Paper Table 4: 192K-entry MissMap = 1.95MB.
	mb := float64(BlockMetadataBits(192*1024, 24)) / 8 / (1 << 20)
	if mb < 1.8 || mb > 2.2 {
		t.Fatalf("MissMap storage = %.2fMB, want ~1.95MB", mb)
	}
}

func TestHotPageBypassesUntilHot(t *testing.T) {
	h := mustHot(t)
	addr := memtrace.Addr(0x10000)
	var bypasses int
	for i := 0; i < 10; i++ {
		out := h.Access(read(addr), nil)
		if out.Bypass {
			bypasses++
		}
		if err := ValidateOps(out.Ops); err != nil {
			t.Fatal(err)
		}
	}
	if bypasses == 0 {
		t.Fatal("no bypasses before the page got hot")
	}
	if bypasses >= 10 {
		t.Fatal("page never became hot")
	}
	// Once allocated, accesses hit.
	if !h.Access(read(addr), nil).Hit {
		t.Fatal("hot page not resident")
	}
}

func mustHot(t *testing.T) *HotPageCache {
	t.Helper()
	h, err := NewHotPageCache(HotPageConfig{
		Geometry:      PageGeometry{CapacityBytes: 1 << 20, PageBytes: 4096, Ways: 16},
		TagCycles:     6,
		FilterEntries: 1024,
		FilterWays:    8,
		Threshold:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCoverageCurve(t *testing.T) {
	counts := map[uint64]uint64{1: 50, 2: 30, 3: 15, 4: 5}
	sizes := CoverageCurve(counts, 4096, []float64{0.5, 0.8, 1.0})
	if sizes[0] != 4096 { // hottest page covers 50%
		t.Fatalf("50%% coverage = %d bytes", sizes[0])
	}
	if sizes[1] != 2*4096 { // two pages cover 80%
		t.Fatalf("80%% coverage = %d bytes", sizes[1])
	}
	if sizes[2] != 4*4096 {
		t.Fatalf("100%% coverage = %d bytes", sizes[2])
	}
	if got := CoverageCurve(nil, 4096, []float64{0.5}); got[0] != 0 {
		t.Fatalf("empty counts: %d", got[0])
	}
}
