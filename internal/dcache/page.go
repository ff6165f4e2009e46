package dcache

import (
	"fmt"
	"math/bits"

	"fpcache/internal/memtrace"
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
	// two vectors (Table 2). The engine stores Demanded as a third so
	// each mask reads directly; the test-only reference model in
	// internal/core keeps the paper's two and must agree with it.
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
