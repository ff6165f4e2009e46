package dcache

import (
	"fmt"
	"math/bits"

	"fpcache/internal/memtrace"
)

// This file implements dynamic capacity partitioning of the stacked
// DRAM, after Bakhshalipour et al.'s "Die-Stacked DRAM: Memory,
// Cache, or MemCache?": part of the stacked capacity is exposed as
// directly addressed OS-visible memory — accesses to pages mapped
// there hit the stacked array with no tag lookup at all — and the
// rest keeps running the composable cache engine. The split point
// moves at run time: the cache slice resizes through the engine's
// jump-consistent-hash set mapping (ResizeSets, engine.go), and page
// residency in the memory region is itself a consistent hash band, so
// a resize relocates only the proportional slice of pages on either
// side of the boundary — never the whole tag space, after Chang et
// al.'s hardware consistent-hashing resize mechanism.

// PartitionPolicy is the partition axis of the composable design
// space: it decides which pages the OS maps into the part-of-memory
// region at a given split, and where each resident page lives inside
// it.
//
// Consistency contract: residency must be monotone in memPages —
// growing the region only adds resident pages, shrinking only removes
// them — so a resize migrates exactly the pages in the moved band.
type PartitionPolicy interface {
	// Name identifies the policy in specs and reports.
	Name() string
	// Locate reports whether pageIdx is mapped into the memory region
	// when memPages of the stacked capacity's totalPages are memory,
	// and, for residents, the region-relative frame in [0, memPages).
	// memPages < totalPages always holds (the cache slice never
	// vanishes entirely). One call decides both questions so the hot
	// path hashes the page index once.
	Locate(pageIdx uint64, memPages, totalPages int64) (slot int64, resident bool)
}

// HashBandPartition maps a page into the memory region iff its hash
// falls below the region's share of the hash space — a uniform sample
// of the page population whose resident set grows and shrinks as a
// contiguous hash band. This is the "memcache" policy of the spec
// grammar and the default partition.
//
// The band is an idealized placement model: it admits the region's
// *share* of the whole page population, not a fixed page count, so
// when the workload's footprint exceeds the stacked capacity the
// region serves more distinct pages than it has frames (MemSlot
// aliases them; harmless in a trace-driven model that tracks no
// data). Hit ratios for memcache splits are therefore an upper bound
// — an OS that profiles well and maps hot pages — while
// LowAddrPartition is the capacity-bounded conservative contrast.
// DESIGN.md §8 spells out the abstraction.
type HashBandPartition struct{}

// Name implements PartitionPolicy.
func (HashBandPartition) Name() string { return "memcache" }

// Locate implements PartitionPolicy: hash(page) below the threshold
// floor(2^64 * memPages / totalPages) is resident. The threshold is
// monotone in memPages, so the resident set is a growing hash band.
func (HashBandPartition) Locate(pageIdx uint64, memPages, totalPages int64) (int64, bool) {
	if memPages <= 0 {
		return 0, false
	}
	thresh, _ := bits.Div64(uint64(memPages), 0, uint64(totalPages))
	h := splitmix64(pageIdx)
	if h >= thresh {
		return 0, false
	}
	return int64(h % uint64(memPages)), true
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed 64-bit
// hash for page indices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// LowAddrPartition maps the lowest physical pages into the memory
// region — the OS pinning one contiguous segment, the "memlow" policy
// of the spec grammar. A contrast point for the hash band: it is
// capacity-bounded (exactly memPages distinct pages can ever be
// resident) and concentrates the benefit on one address range instead
// of sampling the whole population.
type LowAddrPartition struct{}

// Name implements PartitionPolicy.
func (LowAddrPartition) Name() string { return "memlow" }

// Locate implements PartitionPolicy.
func (LowAddrPartition) Locate(pageIdx uint64, memPages, totalPages int64) (int64, bool) {
	if pageIdx >= uint64(memPages) {
		return 0, false
	}
	return int64(pageIdx), true
}

// PartitionStats accumulates partition-specific counters on top of
// the design's Counters.
type PartitionStats struct {
	// MemHits are accesses served by the part-of-memory region (no
	// tag lookup, zero tag latency).
	MemHits uint64
	// Resizes counts Resize calls that changed the split.
	Resizes uint64
	// FlushedClean / FlushedDirty count pages flushed out of dying
	// cache sets by shrinks (dirty ones wrote back exactly once).
	FlushedClean, FlushedDirty uint64
	// MovedPages counts pages re-homed into newly live sets by grows.
	MovedPages uint64
	// DisplacedPages counts residents evicted when a moved page
	// overflowed its destination set.
	DisplacedPages uint64
	// PurgedPages counts cached pages evicted because a resize moved
	// them into the memory region (their dirty blocks wrote back
	// before the region took over).
	PurgedPages uint64
	// MemPages / CachePages are the current split, in pages.
	MemPages, CachePages int64
}

// Sub returns s minus o counter-wise, used to exclude warmup from
// measurements; the current-split fields are carried over from s.
func (s PartitionStats) Sub(o PartitionStats) PartitionStats {
	return PartitionStats{
		MemHits:        s.MemHits - o.MemHits,
		Resizes:        s.Resizes - o.Resizes,
		FlushedClean:   s.FlushedClean - o.FlushedClean,
		FlushedDirty:   s.FlushedDirty - o.FlushedDirty,
		MovedPages:     s.MovedPages - o.MovedPages,
		DisplacedPages: s.DisplacedPages - o.DisplacedPages,
		PurgedPages:    s.PurgedPages - o.PurgedPages,
		MemPages:       s.MemPages,
		CachePages:     s.CachePages,
	}
}

// Partitioned splits the stacked capacity between a directly
// addressed part-of-memory region and a cache slice (implements
// Design). Accesses to memory-resident pages are stacked hits with
// zero tag latency — they bypass the tag array entirely; everything
// else delegates to the wrapped cache design (an Engine, possibly
// behind a fill Gate), which runs on the remaining capacity.
//
// The stacked address space is split top-down: the cache slice's
// frames occupy [0, cachePages*pageBytes) so cache frame addresses
// stay stable across resizes, and the memory region occupies the top
// memPages frames.
type Partitioned struct {
	name   string
	inner  Design
	engine *Engine
	policy PartitionPolicy

	pageBytes  int
	ways       int
	totalPages int64
	capBytes   int64
	memPages   int64

	ctr    Counters
	pstats PartitionStats
}

// PartitionConfig assembles a Partitioned design.
type PartitionConfig struct {
	// Name is the composed design's reported name
	// ("footprint+memcache:50").
	Name string
	// Inner is the cache slice: a consistent-hash Engine, optionally
	// wrapped in a fill Gate.
	Inner Design
	// Policy decides page residency in the memory region.
	Policy PartitionPolicy
	// MemPercent is the initial share of stacked capacity dedicated
	// to the memory region, in percent [0, 100). The cache slice
	// always keeps at least one set.
	MemPercent int
}

// NewPartitioned builds the partitioned design. The inner design's
// engine must use consistent-hash indexing (EngineConfig.Consistent)
// and its geometry must span the full stacked capacity — the
// partition only decides how much of it the tags currently govern.
func NewPartitioned(cfg PartitionConfig) (*Partitioned, error) {
	if cfg.Inner == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("dcache: partition %q needs an inner design and a policy", cfg.Name)
	}
	eng := EngineOf(cfg.Inner)
	if eng == nil {
		return nil, fmt.Errorf("dcache: partition %q: inner design has no engine", cfg.Name)
	}
	if !eng.Consistent() {
		return nil, fmt.Errorf("dcache: partition %q: inner engine must use consistent-hash indexing", cfg.Name)
	}
	if cfg.MemPercent < 0 || cfg.MemPercent >= 100 {
		return nil, fmt.Errorf("dcache: partition %q: memory share %d%% out of range [0,100)", cfg.Name, cfg.MemPercent)
	}
	p := &Partitioned{
		name:       cfg.Name,
		inner:      cfg.Inner,
		engine:     eng,
		policy:     cfg.Policy,
		pageBytes:  eng.geom.PageBytes,
		ways:       eng.geom.Ways,
		totalPages: eng.geom.CapacityBytes / int64(eng.geom.PageBytes),
		capBytes:   eng.geom.CapacityBytes,
	}
	// Initial split: the engine is empty, so sizing is a pure state
	// change — no flushes, no migration traffic.
	sets, mem := p.split(float64(cfg.MemPercent) / 100)
	eng.liveSets = sets
	p.memPages = mem
	p.pstats.MemPages, p.pstats.CachePages = mem, p.totalPages-mem
	return p, nil
}

// EngineOf unwraps a design (through any chain of Unwrap-ing
// wrappers — gates, partitions) to its composed engine, nil when the
// design has none.
func EngineOf(d Design) *Engine {
	switch v := d.(type) {
	case *Engine:
		return v
	case interface{ Unwrap() Design }:
		return EngineOf(v.Unwrap())
	}
	return nil
}

// split quantizes a memory fraction onto set granularity: the cache
// slice is liveSets*ways pages (at least one set), the memory region
// everything above it.
func (p *Partitioned) split(memFraction float64) (cacheSets int, memPages int64) {
	if memFraction < 0 {
		memFraction = 0
	}
	if memFraction > 1 {
		memFraction = 1
	}
	maxSets := p.engine.sets
	cacheSets = maxSets - int(memFraction*float64(maxSets)+0.5)
	if cacheSets < 1 {
		cacheSets = 1
	}
	if cacheSets > maxSets {
		cacheSets = maxSets
	}
	return cacheSets, p.totalPages - int64(cacheSets)*int64(p.ways)
}

// memBase returns the stacked address where the memory region starts
// (the region occupies the top of the stacked capacity).
func (p *Partitioned) memBase() memtrace.Addr {
	return memtrace.Addr(p.capBytes - p.memPages*int64(p.pageBytes))
}

// Name implements Design.
func (p *Partitioned) Name() string { return p.name }

// Unwrap exposes the cache slice (predictor statistics, engine
// access).
func (p *Partitioned) Unwrap() Design { return p.inner }

// Policy exposes the partition policy.
func (p *Partitioned) Policy() PartitionPolicy { return p.policy }

// Counters implements Design: the memory-region path's counters plus
// the cache slice's.
func (p *Partitioned) Counters() Counters { return p.ctr.Add(p.inner.Counters()) }

// Partition returns the partition-specific statistics.
func (p *Partitioned) Partition() PartitionStats {
	s := p.pstats
	s.MemPages, s.CachePages = p.memPages, p.totalPages-p.memPages
	return s
}

// MetadataBits implements Design: the cache slice's tag array (sized
// for the largest possible slice — hardware provisions tags for the
// whole capacity) — the memory region needs none, which is the
// partition's SRAM win.
func (p *Partitioned) MetadataBits() int64 { return p.inner.MetadataBits() }

// Access implements Design. Memory-resident pages are stacked hits
// with zero tag cycles; everything else goes through the cache slice.
func (p *Partitioned) Access(rec memtrace.Record, ops []Op) Outcome {
	pageIdx, block := pageAddrOf(rec.Addr, p.pageBytes)
	if slot, resident := p.policy.Locate(pageIdx, p.memPages, p.totalPages); resident {
		p.ctr.record(rec)
		p.ctr.Hits++
		p.pstats.MemHits++
		addr := p.memBase() + memtrace.Addr(slot*int64(p.pageBytes)+int64(block)*64)
		ops = append(ops[:0], Op{
			Level: Stacked, Addr: addr, Bytes: 64,
			Write: rec.Write, Critical: criticality(rec.Write), DependsOn: NoDep,
		})
		return Outcome{Hit: true, Ops: ops}
	}
	return p.inner.Access(rec, ops)
}

// Resize moves the split point to the given memory fraction,
// appending the transition's DRAM operations to ops. The protocol
// (DESIGN.md §8) keeps both invariants across the move — no stale hit,
// no lost writeback:
//
//   - cache shrink (memory grows): the engine first flushes its dying
//     sets (dirty pages write back exactly once, clean ones are
//     invalidated), then the surviving sets are purged of pages the
//     larger memory region now claims — a dirty cached page always
//     writes back before the tagless region takes over, so no
//     writeback is lost and no unreachable stale copy remains.
//   - cache grow (memory shrinks): pages leaving the memory region
//     simply become cacheable (first touch misses and refetches);
//     the engine then re-homes the consistent-hash slice of cached
//     pages into the newly live sets.
//
// Resize with an unchanged quantized split is a no-op and does not
// count as a resize.
func (p *Partitioned) Resize(memFraction float64, ops []Op) []Op {
	newSets, newMem := p.split(memFraction)
	if newSets == p.engine.LiveSets() && newMem == p.memPages {
		return ops
	}
	p.pstats.Resizes++
	var d ResizeDelta
	if newSets < p.engine.LiveSets() {
		ops, d = p.engine.ResizeSets(newSets, ops)
		p.memPages = newMem
		ops = p.purgeMemResident(ops)
	} else {
		p.memPages = newMem
		ops, d = p.engine.ResizeSets(newSets, ops)
	}
	p.pstats.FlushedClean += uint64(d.FlushedClean)
	p.pstats.FlushedDirty += uint64(d.FlushedDirty)
	p.pstats.MovedPages += uint64(d.Moved)
	p.pstats.DisplacedPages += uint64(d.Displaced)
	return ops
}

// purgeMemResident evicts every cached page the (just grown) memory
// region now claims, through the engine's normal eviction path, so
// dirty blocks write back before the tagless region shadows them.
func (p *Partitioned) purgeMemResident(ops []Op) []Op {
	e := p.engine
	for s := 0; s < e.liveSets; s++ {
		for w := 0; w < p.ways; w++ {
			ent := e.tags.Slot(s, w)
			if ent == nil || !ent.Valid() {
				continue
			}
			if _, resident := p.policy.Locate(ent.Tag, p.memPages, p.totalPages); !resident {
				continue
			}
			ops = e.evict(s, ent, e.frame(s, w), ops)
			e.tags.Invalidate(s, ent.Tag)
			p.pstats.PurgedPages++
		}
	}
	return ops
}

// CheckInvariants scans the partition for states a resize must never
// leave behind; the resize invariant tests call it after every move.
// It verifies that no tag entry lives beyond the live sets, that
// every entry sits in its consistent-hash set, and that no cached
// page is shadowed by the memory region.
func (p *Partitioned) CheckInvariants() error {
	e := p.engine
	for s := 0; s < e.sets; s++ {
		for w := 0; w < p.ways; w++ {
			ent := e.tags.Slot(s, w)
			if ent == nil || !ent.Valid() {
				continue
			}
			if s >= e.liveSets {
				return fmt.Errorf("dcache: page %#x resident in dead set %d (live %d)", ent.Tag, s, e.liveSets)
			}
			if hs := jumpHash(ent.Tag, e.liveSets); hs != s {
				return fmt.Errorf("dcache: page %#x in set %d but hashes to %d at %d live sets", ent.Tag, s, hs, e.liveSets)
			}
			if _, resident := p.policy.Locate(ent.Tag, p.memPages, p.totalPages); resident {
				return fmt.Errorf("dcache: page %#x cached while memory-resident (mem %d/%d pages)", ent.Tag, p.memPages, p.totalPages)
			}
		}
	}
	return nil
}
