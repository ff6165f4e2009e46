package dcache

import (
	"fmt"
	"math/bits"

	"fpcache/internal/memtrace"
	"fpcache/internal/sram"
)

// PageGeometry is the shared geometry of page-granularity designs
// (page-based, sub-blocked, and the Footprint Cache in internal/core).
type PageGeometry struct {
	CapacityBytes int64
	PageBytes     int
	Ways          int
}

// Validate checks the geometry and returns sets and blocks-per-page.
func (g PageGeometry) Validate() (sets, blocksPerPage int, err error) {
	if g.PageBytes <= 0 || g.PageBytes%64 != 0 || g.PageBytes&(g.PageBytes-1) != 0 {
		return 0, 0, fmt.Errorf("dcache: page size %d must be a 64B-multiple power of two", g.PageBytes)
	}
	if g.Ways <= 0 {
		return 0, 0, fmt.Errorf("dcache: ways must be positive")
	}
	pages := g.CapacityBytes / int64(g.PageBytes)
	if pages < int64(g.Ways) {
		return 0, 0, fmt.Errorf("dcache: capacity %d too small for %d ways of %dB pages", g.CapacityBytes, g.Ways, g.PageBytes)
	}
	if pages%int64(g.Ways) != 0 {
		return 0, 0, fmt.Errorf("dcache: %d pages not divisible by %d ways", pages, g.Ways)
	}
	bpp := g.PageBytes / 64
	if bpp > 64 {
		return 0, 0, fmt.Errorf("dcache: pages larger than 4KB (%d blocks) exceed the 64-bit block vectors", bpp)
	}
	return int(pages / int64(g.Ways)), bpp, nil
}

// pageAddrOf splits an address into page index and block-within-page.
func pageAddrOf(addr memtrace.Addr, pageBytes int) (pageIdx uint64, block int) {
	return uint64(addr) / uint64(pageBytes), int(uint64(addr) % uint64(pageBytes) / 64)
}

// PageMeta is the per-page payload of page-granularity tag arrays.
type PageMeta struct {
	// Valid marks blocks present in the stacked DRAM.
	Valid uint64
	// Dirty marks blocks modified since fill. A dirty block is always
	// demanded, which is what lets the paper encode block state in
	// just these two vectors (Table 2).
	Dirty uint64
	// Demanded marks blocks actually touched by cores during this
	// residency (the page's footprint, §4.3).
	Demanded uint64
	// FHTPtr links the page to the predictor entry that fetched it
	// (used only by the Footprint design; carried here so all
	// page-granularity designs share one tag array type).
	FHTPtr int32
	// Predicted is the footprint the predictor chose at allocation
	// (for accuracy accounting, Fig. 8).
	Predicted uint64
	// Freq counts accesses during this residency (frequency-gated fill
	// policies compare it against allocation candidates).
	Freq uint32
	// Spread records the mapping placement chosen at allocation
	// (engine.go): false = packed page-direct, true = block-style
	// row-spread.
	Spread bool
}

// DensityObserver receives the demanded-block count of every evicted
// page; Figure 4 is built from it.
type DensityObserver func(demandedBlocks, pageBlocks int)

// PageCache is the conventional page-based DRAM cache (§2.3): SRAM
// tags, whole-page fills and evictions, maximal DRAM locality, and an
// order-of-magnitude off-chip traffic amplification on sparse pages.
type PageCache struct {
	geom      PageGeometry
	sets      int
	bpp       int
	tagCycles int
	tags      *sram.SetAssoc[PageMeta]
	ctr       Counters
	// OnEvict, if set, observes eviction densities.
	OnEvict DensityObserver
}

// PageCacheConfig configures a page-based cache.
type PageCacheConfig struct {
	Geometry  PageGeometry
	TagCycles int
}

// NewPageCache builds the design.
func NewPageCache(cfg PageCacheConfig) (*PageCache, error) {
	sets, bpp, err := cfg.Geometry.Validate()
	if err != nil {
		return nil, err
	}
	return &PageCache{
		geom:      cfg.Geometry,
		sets:      sets,
		bpp:       bpp,
		tagCycles: cfg.TagCycles,
		tags:      sram.NewSetAssoc[PageMeta](sets, cfg.Geometry.Ways),
	}, nil
}

// Name implements Design.
func (p *PageCache) Name() string { return "page" }

// Counters implements Design.
func (p *PageCache) Counters() Counters { return p.ctr }

// PageMetadataBits computes the page-based design's SRAM budget for a
// geometry: per page, an address tag, a valid bit, LRU state, and a
// per-block dirty vector (this reproduces the paper's Table 4
// page-based tag storage).
func PageMetadataBits(geom PageGeometry) int64 {
	sets, bpp, err := geom.Validate()
	if err != nil {
		panic(err)
	}
	pages := geom.CapacityBytes / int64(geom.PageBytes)
	per := int64(addressTagBits(geom.PageBytes, sets) + 1 + lruBits(geom.Ways) + bpp)
	return pages * per
}

// MetadataBits implements Design.
func (p *PageCache) MetadataBits() int64 { return PageMetadataBits(p.geom) }

// frameAddr returns the stacked-DRAM byte address of a (set, way)
// frame: set/way pairs directly determine cache-array addresses
// (§4.1), and a frame spans exactly one DRAM row for 2KB pages.
func (p *PageCache) frameAddr(set, way int) memtrace.Addr {
	return memtrace.Addr((int64(set)*int64(p.geom.Ways) + int64(way)) * int64(p.geom.PageBytes))
}

func (p *PageCache) fullMask() uint64 {
	if p.bpp == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << p.bpp) - 1
}

// Access implements Design.
func (p *PageCache) Access(rec memtrace.Record, ops []Op) Outcome {
	p.ctr.record(rec)
	pageIdx, block := pageAddrOf(rec.Addr, p.geom.PageBytes)
	set := int(pageIdx % uint64(p.sets))
	tag := pageIdx / uint64(p.sets)
	bit := uint64(1) << block

	if e := p.tags.Lookup(set, tag); e != nil {
		p.ctr.Hits++
		e.Value.Demanded |= bit
		if rec.Write {
			e.Value.Dirty |= bit
		}
		ops = append(ops[:0], Op{
			Level: Stacked, Addr: p.frameAddr(set, e.Way()) + memtrace.Addr(block*64),
			Bytes: 64, Write: rec.Write, Critical: criticality(rec.Write), DependsOn: NoDep,
		})
		return Outcome{Hit: true, TagCycles: p.tagCycles, Ops: ops}
	}

	// Page miss: evict the victim, fetch the whole page (§2.3).
	p.ctr.Misses++
	ops = ops[:0]
	victim := p.tags.Victim(set)
	frame := p.frameAddr(set, victim.Way())
	if victim.Valid() {
		p.ctr.PageEvicts++
		if p.OnEvict != nil {
			p.OnEvict(popcount(victim.Value.Demanded), p.bpp)
		}
		if victim.Value.Dirty != 0 {
			// Writeback: stream the dirty blocks out of the page's
			// row (the dirty vector is in the SRAM tags, so clean
			// blocks never travel).
			p.ctr.DirtyEvicts++
			n := popcount(victim.Value.Dirty)
			victimBase := memtrace.Addr(victim.Tag*uint64(p.sets)+uint64(set)) * memtrace.Addr(p.geom.PageBytes)
			ops = append(ops,
				Op{Level: Stacked, Addr: frame, Bytes: n * 64, Write: false, DependsOn: NoDep},
				Op{Level: OffChip, Addr: victimBase, Bytes: n * 64, Write: true, DependsOn: 0},
			)
		}
	}

	// Critical-block-first fetch, then the page remainder, then the
	// fill into the stacked array. A write miss carries its own 64B
	// block, so only the remainder is fetched.
	pageBase := memtrace.Addr(pageIdx * uint64(p.geom.PageBytes))
	crit := int32(NoDep)
	if !rec.Write {
		crit = int32(len(ops))
		ops = append(ops, Op{Level: OffChip, Addr: rec.Addr, Bytes: 64, Critical: true, DependsOn: NoDep})
	}
	rest := int32(len(ops))
	ops = append(ops, Op{Level: OffChip, Addr: pageBase, Bytes: p.geom.PageBytes - 64, DependsOn: crit})
	ops = append(ops, Op{Level: Stacked, Addr: frame, Bytes: p.geom.PageBytes, Write: true, DependsOn: rest})

	meta := PageMeta{Valid: p.fullMask(), Demanded: bit}
	if rec.Write {
		meta.Dirty = bit
	}
	p.tags.Replace(victim, tag, meta)
	p.ctr.PageAllocs++
	return Outcome{TagCycles: p.tagCycles, Ops: ops}
}

// addressTagBits computes tag width for a 40-bit physical address
// space (the paper assumes ARM's extended 40-bit addressing, §5.2).
func addressTagBits(pageBytes, sets int) int {
	return 40 - bits.TrailingZeros64(uint64(pageBytes)) - bits.Len64(uint64(sets-1))
}

// lruBits returns the per-entry LRU state width.
func lruBits(ways int) int {
	if ways <= 1 {
		return 0
	}
	return bits.Len64(uint64(ways - 1))
}
