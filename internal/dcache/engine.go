package dcache

import (
	"fmt"

	"fpcache/internal/memtrace"
	"fpcache/internal/sram"
)

// Engine is the composed page-granularity DRAM cache: one generic
// Design whose behaviour is the product of an allocation policy, a
// mapping policy, and (optionally, via gate.go) a fill gate. The
// paper's page-based, sub-blocked, and Footprint designs are fixed
// policy combinations of this engine — proven byte-identical to the
// monolithic reference implementations by the golden parity test in
// internal/system — and hybrids like footprint+banshee compose from
// the same parts.
//
// The access flow is the superset of the monoliths' flows (§2.3,
// §3.1, §4.2-4.4): tag lookup; block hit served from the stacked
// array; block miss on a resident page demand-fetched alone; page
// miss consulted with the allocation policy (which may bypass),
// then victim eviction with policy feedback and a single footprint
// fetch.
type Engine struct {
	name      string
	geom      PageGeometry
	sets      int
	bpp       int
	tagCycles int
	full      uint64
	tags      *sram.SetAssoc[PageMeta]
	alloc     AllocPolicy
	mapping   MappingPolicy
	ctr       Counters

	// consistent selects jump-consistent-hash set indexing instead of
	// modulo indexing. Consistent engines store the full page index as
	// the tag (the set is not arithmetically recoverable) and may run
	// with fewer live sets than the tag array holds — the mechanism
	// behind run-time partition resizing (partition.go): growing or
	// shrinking liveSets relocates only the proportional slice of
	// pages, never the whole tag space.
	consistent bool
	// liveSets is the currently indexable prefix of the set array;
	// always equal to sets for modulo engines.
	liveSets int

	// OnEvict, if set, observes eviction densities (Fig. 4).
	OnEvict DensityObserver
}

// EngineConfig assembles an Engine.
type EngineConfig struct {
	// Name is the design name reported by Name(); canonical
	// compositions use the paper design's name ("page", "footprint"),
	// composites their spec string ("footprint+banshee").
	Name      string
	Geometry  PageGeometry
	TagCycles int
	Alloc     AllocPolicy
	Mapping   MappingPolicy
	// Consistent selects jump-consistent-hash set indexing, making the
	// engine resizable at run time (ResizeSets). Partitioned stacked
	// designs require it; fixed-capacity designs keep the cheaper
	// modulo indexing.
	Consistent bool
}

// NewEngine builds the composed design.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	sets, bpp, err := cfg.Geometry.Validate()
	if err != nil {
		return nil, err
	}
	if cfg.Alloc == nil || cfg.Mapping == nil {
		return nil, fmt.Errorf("dcache: engine %q needs both an allocation and a mapping policy", cfg.Name)
	}
	full := ^uint64(0)
	if bpp < 64 {
		full = (uint64(1) << bpp) - 1
	}
	return &Engine{
		name:       cfg.Name,
		geom:       cfg.Geometry,
		sets:       sets,
		bpp:        bpp,
		tagCycles:  cfg.TagCycles,
		full:       full,
		tags:       sram.NewSetAssoc[PageMeta](sets, cfg.Geometry.Ways),
		alloc:      cfg.Alloc,
		mapping:    cfg.Mapping,
		consistent: cfg.Consistent,
		liveSets:   sets,
	}, nil
}

// locate maps a page index onto the tag array: jump-consistent hash
// over the live sets (full page index as tag) for consistent engines,
// modulo indexing (tag = pageIdx / sets) otherwise.
func (e *Engine) locate(pageIdx uint64) (set int, tag uint64) {
	if e.consistent {
		return jumpHash(pageIdx, e.liveSets), pageIdx
	}
	return int(pageIdx % uint64(e.sets)), pageIdx / uint64(e.sets)
}

// pageIdxOf inverts locate: the page index a (tag, set) pair stands
// for.
func (e *Engine) pageIdxOf(tag uint64, set int) uint64 {
	if e.consistent {
		return tag
	}
	return tag*uint64(e.sets) + uint64(set)
}

// jumpHash is Lamping–Veach jump consistent hashing: a uniform
// key→bucket map with the resize property the partition subsystem
// leans on — growing from n to m buckets moves only keys whose new
// bucket is in [n, m), and every key it moves lands in a new bucket;
// shrinking is the exact inverse. No state, no allocation, O(ln n).
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// Name implements Design.
func (e *Engine) Name() string { return e.name }

// Counters implements Design.
func (e *Engine) Counters() Counters { return e.ctr }

// Alloc exposes the allocation policy (the system layer extracts
// predictor statistics through it).
func (e *Engine) Alloc() AllocPolicy { return e.alloc }

// Mapping exposes the mapping policy.
func (e *Engine) Mapping() MappingPolicy { return e.mapping }

// Geometry returns the engine's page geometry.
func (e *Engine) Geometry() PageGeometry { return e.geom }

// TagCycles returns the SRAM tag lookup latency.
func (e *Engine) TagCycles() int { return e.tagCycles }

// MetadataBits implements Design: the shared tag array (address tag,
// page-valid bit, LRU) plus the allocation policy's per-page vectors
// and tables — reproducing each paper design's Table 4 row.
func (e *Engine) MetadataBits() int64 {
	pages := e.geom.CapacityBytes / int64(e.geom.PageBytes)
	per := int64(addressTagBits(e.geom.PageBytes, e.sets) + 1 + lruBits(e.geom.Ways) + e.alloc.MetaBitsPerPage(e.bpp))
	return pages*per + e.alloc.TableBits(e.bpp)
}

// frame returns the frame index of a (set, way) pair.
func (e *Engine) frame(set, way int) int64 {
	return int64(set)*int64(e.geom.Ways) + int64(way)
}

// Resident reports whether the page holding addr is allocated,
// without touching replacement state (fill gates consult it before
// delegating).
func (e *Engine) Resident(addr memtrace.Addr) bool {
	pageIdx, _ := pageAddrOf(addr, e.geom.PageBytes)
	set, tag := e.locate(pageIdx)
	return e.tags.Peek(set, tag) != nil
}

// VictimFreq returns the residency access count of the page that an
// allocation for addr would evict — zero when a free way exists.
// Frequency-gated fills compare it against the candidate's count.
func (e *Engine) VictimFreq(addr memtrace.Addr) uint32 {
	pageIdx, _ := pageAddrOf(addr, e.geom.PageBytes)
	set, _ := e.locate(pageIdx)
	v := e.tags.Victim(set)
	if !v.Valid() {
		return 0
	}
	return v.Value.Freq
}

// Access implements Design.
func (e *Engine) Access(rec memtrace.Record, ops []Op) Outcome {
	e.ctr.record(rec)
	pageIdx, block := pageAddrOf(rec.Addr, e.geom.PageBytes)
	set, tag := e.locate(pageIdx)
	bit := uint64(1) << block

	if ent := e.tags.Lookup(set, tag); ent != nil {
		ent.Value.Freq++
		frame := e.frame(set, ent.Way())
		addr := e.mapping.BlockAddr(frame, block, ent.Value.Spread)
		if ent.Value.Valid&bit != 0 {
			// Block hit: serve from the stacked array.
			e.ctr.Hits++
			ent.Value.Demanded |= bit
			if rec.Write {
				ent.Value.Dirty |= bit
			}
			ops = append(ops[:0], Op{
				Level: Stacked, Addr: addr, Bytes: 64,
				Write: rec.Write, Critical: criticality(rec.Write), DependsOn: NoDep,
			})
			return Outcome{Hit: true, TagCycles: e.tagCycles, Ops: ops}
		}
		// Resident page, block absent (underprediction): demand-fetch
		// the block alone; a write carries its own 64B block.
		e.ctr.Misses++
		e.alloc.OnBlockMiss(rec)
		ent.Value.Valid |= bit
		ent.Value.Demanded |= bit
		if rec.Write {
			ent.Value.Dirty |= bit
			ops = append(ops[:0], Op{Level: Stacked, Addr: addr, Bytes: 64, Write: true, DependsOn: NoDep})
			return Outcome{TagCycles: e.tagCycles, Ops: ops}
		}
		ops = append(ops[:0],
			Op{Level: OffChip, Addr: rec.Addr, Bytes: 64, Critical: true, DependsOn: NoDep},
			Op{Level: Stacked, Addr: addr, Bytes: 64, Write: true, DependsOn: 0},
		)
		return Outcome{TagCycles: e.tagCycles, Ops: ops}
	}

	// Triggering miss: ask the allocation policy what to fetch.
	e.ctr.Misses++
	dec := e.alloc.OnPageMiss(rec, pageIdx, block, e.full)
	if dec.Bypass {
		e.ctr.Bypasses++
		ops = append(ops[:0], Op{
			Level: OffChip, Addr: rec.Addr, Bytes: 64,
			Write: rec.Write, Critical: criticality(rec.Write), DependsOn: NoDep,
		})
		return Outcome{Bypass: true, TagCycles: e.tagCycles, Ops: ops}
	}

	// Allocate: evict the victim (with policy feedback), then fetch
	// the footprint in one shot.
	ops = ops[:0]
	victim := e.tags.Victim(set)
	frame := e.frame(set, victim.Way())
	if victim.Valid() {
		ops = e.evict(set, victim, frame, ops)
	}

	footprint := dec.Footprint | bit
	spread := e.mapping.Place(footprint)
	ops = e.fetch(rec, pageIdx, block, frame, footprint, spread, ops)

	meta := PageMeta{
		Valid: footprint, Demanded: bit,
		FHTPtr: dec.FHTPtr, Predicted: footprint,
		Freq: 1, Spread: spread,
	}
	if rec.Write {
		meta.Dirty = bit
	}
	e.tags.Replace(victim, tag, meta)
	e.ctr.PageAllocs++
	return Outcome{TagCycles: e.tagCycles, Ops: ops}
}

// LiveSets returns the number of currently indexable sets.
func (e *Engine) LiveSets() int { return e.liveSets }

// Consistent reports whether the engine uses resizable
// consistent-hash set indexing.
func (e *Engine) Consistent() bool { return e.consistent }

// ResizeDelta summarizes what one ResizeSets call did.
type ResizeDelta struct {
	// FlushedClean / FlushedDirty count pages flushed out of dying
	// sets on a shrink (dirty ones emitted a writeback).
	FlushedClean, FlushedDirty int
	// Moved counts pages re-homed into newly live sets on a grow.
	Moved int
	// Displaced counts resident pages evicted because a moved page
	// overflowed its destination set.
	Displaced int
}

// ResizeSets changes the live set count of a consistent-hash engine
// at run time, appending the transition's DRAM operations to ops.
//
// Shrink (newSets < live): every page in a dying set is flushed —
// clean pages are invalidated, dirty pages emit their writeback
// (through the normal eviction path, so predictor feedback and
// eviction counters stay truthful). Jump-hash monotonicity guarantees
// pages in surviving sets keep their set, so only the proportional
// slice of sets is touched.
//
// Grow (newSets > live): the tag array is scanned and every page
// whose hash now lands in a new set is moved there — valid blocks
// migrate frame-to-frame inside the stacked array (one read + one
// write span for packed pages, per-block pairs for spread ones). By
// the same monotonicity, movers only ever land in new sets; a
// destination overflow evicts its victim through the normal path.
//
// Modulo engines and out-of-range sizes are a no-op. The partition
// invariant test (partition_test.go) pins that no stale hit survives
// a shrink and every dirty page is written back exactly once.
func (e *Engine) ResizeSets(newSets int, ops []Op) ([]Op, ResizeDelta) {
	var d ResizeDelta
	if !e.consistent || newSets < 1 || newSets > e.sets || newSets == e.liveSets {
		return ops, d
	}
	if newSets < e.liveSets {
		for s := newSets; s < e.liveSets; s++ {
			for w := 0; w < e.geom.Ways; w++ {
				ent := e.tags.Slot(s, w)
				if ent == nil || !ent.Valid() {
					continue
				}
				if ent.Value.Dirty != 0 {
					d.FlushedDirty++
				} else {
					d.FlushedClean++
				}
				ops = e.evict(s, ent, e.frame(s, w), ops)
				e.tags.Invalidate(s, ent.Tag)
			}
		}
		e.liveSets = newSets
		return ops, d
	}
	old := e.liveSets
	e.liveSets = newSets
	for s := 0; s < old; s++ {
		for w := 0; w < e.geom.Ways; w++ {
			ent := e.tags.Slot(s, w)
			if ent == nil || !ent.Valid() {
				continue
			}
			page := ent.Tag
			ns := jumpHash(page, newSets)
			if ns == s {
				continue
			}
			meta := ent.Value
			oldFrame := e.frame(s, w)
			e.tags.Invalidate(s, page)
			victim := e.tags.Victim(ns)
			if victim.Valid() {
				ops = e.evict(ns, victim, e.frame(ns, victim.Way()), ops)
				d.Displaced++
			}
			newFrame := e.frame(ns, victim.Way())
			ops = e.moveOps(meta, oldFrame, newFrame, ops)
			e.tags.Replace(victim, page, meta)
			d.Moved++
		}
	}
	return ops, d
}

// moveOps emits the stacked-to-stacked migration of a page's valid
// blocks from one frame to another: a single read + write span for
// packed frames, per-block pairs for row-spread ones. Background
// traffic only — nothing depends on it.
func (e *Engine) moveOps(meta PageMeta, oldFrame, newFrame int64, ops []Op) []Op {
	n := popcount(meta.Valid)
	if n == 0 {
		return ops
	}
	if !meta.Spread {
		rd := len(ops)
		ops = append(ops,
			Op{Level: Stacked, Addr: e.mapping.BlockAddr(oldFrame, 0, false), Bytes: n * 64, DependsOn: NoDep},
			Op{Level: Stacked, Addr: e.mapping.BlockAddr(newFrame, 0, false), Bytes: n * 64, Write: true, DependsOn: rd},
		)
		return ops
	}
	for rem := meta.Valid; rem != 0; rem &= rem - 1 {
		b := trailingZeros(rem)
		rd := len(ops)
		ops = append(ops,
			Op{Level: Stacked, Addr: e.mapping.BlockAddr(oldFrame, b, true), Bytes: 64, DependsOn: NoDep},
			Op{Level: Stacked, Addr: e.mapping.BlockAddr(newFrame, b, true), Bytes: 64, Write: true, DependsOn: rd},
		)
	}
	return ops
}

// fetch emits the footprint transfer: the demanded block first
// (critical, unless a writeback carries its own data), the remaining
// predicted blocks streaming from the page's off-chip row, then the
// fill into the stacked array — one span for packed frames, one op
// per block for row-spread frames.
func (e *Engine) fetch(rec memtrace.Record, pageIdx uint64, block int, frame int64, footprint uint64, spread bool, ops []Op) []Op {
	n := popcount(footprint)
	crit := NoDep
	if !rec.Write {
		crit = len(ops)
		ops = append(ops, Op{Level: OffChip, Addr: rec.Addr, Bytes: 64, Critical: true, DependsOn: NoDep})
	}
	if n == 1 {
		ops = append(ops, Op{Level: Stacked, Addr: e.mapping.BlockAddr(frame, block, spread), Bytes: 64, Write: true, DependsOn: crit})
		return ops
	}
	rest := len(ops)
	pageBase := memtrace.Addr(pageIdx * uint64(e.geom.PageBytes))
	ops = append(ops, Op{Level: OffChip, Addr: pageBase, Bytes: (n - 1) * 64, DependsOn: crit})
	if !spread {
		ops = append(ops, Op{Level: Stacked, Addr: e.mapping.BlockAddr(frame, 0, false), Bytes: n * 64, Write: true, DependsOn: rest})
		return ops
	}
	for rem := footprint; rem != 0; rem &= rem - 1 {
		b := trailingZeros(rem)
		ops = append(ops, Op{Level: Stacked, Addr: e.mapping.BlockAddr(frame, b, true), Bytes: 64, Write: true, DependsOn: rest})
	}
	return ops
}

// evict retires a victim page: density observation, allocation-policy
// feedback (predictor accounting), and dirty writebacks — a packed
// frame streams its dirty blocks in one span, a spread frame reads
// them row by row.
func (e *Engine) evict(set int, victim *sram.Entry[PageMeta], frame int64, ops []Op) []Op {
	e.ctr.PageEvicts++
	v := &victim.Value
	if e.OnEvict != nil {
		e.OnEvict(popcount(v.Demanded), e.bpp)
	}
	e.alloc.OnEvict(v)
	if v.Dirty == 0 {
		return ops
	}
	e.ctr.DirtyEvicts++
	n := popcount(v.Dirty)
	victimBase := memtrace.Addr(e.pageIdxOf(victim.Tag, set)) * memtrace.Addr(e.geom.PageBytes)
	rd := len(ops)
	if !v.Spread {
		ops = append(ops, Op{Level: Stacked, Addr: e.mapping.BlockAddr(frame, 0, false), Bytes: n * 64, DependsOn: NoDep})
	} else {
		for rem := v.Dirty; rem != 0; rem &= rem - 1 {
			b := trailingZeros(rem)
			ops = append(ops, Op{Level: Stacked, Addr: e.mapping.BlockAddr(frame, b, true), Bytes: 64, DependsOn: NoDep})
		}
	}
	ops = append(ops, Op{Level: OffChip, Addr: victimBase, Bytes: n * 64, Write: true, DependsOn: rd})
	return ops
}
