package dcache

import "fpcache/internal/memtrace"

// This file defines the policy vocabulary of the composable cache
// engine (engine.go). A page-granularity DRAM cache decomposes into
// three orthogonal axes:
//
//   - allocation granularity (AllocPolicy): which blocks a triggering
//     page miss fetches — the whole page, the demanded block only, or
//     a predicted footprint;
//   - mapping / tag placement (MappingPolicy): where a page's blocks
//     land in the stacked array — packed into one DRAM row
//     (page-direct) or spread across rows (block-style), possibly
//     chosen per page (hybrid, after Chi et al.'s Gemini);
//   - replacement / fill gating (gate.go): whether a missing page is
//     admitted at all — always (LRU), after a hotness threshold
//     (CHOP), or only when hotter than its victim (after Yu et al.'s
//     Banshee frequency-gated fill).
//
// The paper's designs are fixed points of this space, pinned by the
// recorded parity rows (internal/system/testdata/parity), and
// everything between the fixed points is reachable from a spec string
// ("footprint+banshee").

// AllocDecision is an AllocPolicy's verdict on a triggering page miss.
type AllocDecision struct {
	// Footprint is the block mask to fetch; the demanded block's bit is
	// always set.
	Footprint uint64
	// Bypass serves the miss straight from memory without allocating.
	Bypass bool
	// FHTPtr is an opaque predictor handle stored in the page's tag
	// entry and handed back to the policy at eviction (NoFHTPtr when
	// the policy keeps no feedback state).
	FHTPtr int32
}

// NoFHTPtr marks a page with no predictor link.
const NoFHTPtr int32 = -1

// AllocPolicy decides allocation granularity: what a triggering page
// miss fetches, what happens on block misses to resident pages, and
// what the policy learns from evictions.
type AllocPolicy interface {
	// Name identifies the policy in specs and reports.
	Name() string
	// OnPageMiss decides the fetch for a triggering miss. fullMask has
	// one bit per block of the page.
	OnPageMiss(rec memtrace.Record, pageIdx uint64, block int, fullMask uint64) AllocDecision
	// OnBlockMiss observes an access to a resident page whose block was
	// not fetched (the underprediction cost of partial allocation).
	OnBlockMiss(rec memtrace.Record)
	// OnEvict receives the evicted page's metadata for feedback and
	// accuracy accounting before the engine emits writebacks.
	OnEvict(meta *PageMeta)
	// MetaBitsPerPage is the per-page SRAM cost beyond the shared
	// address tag, valid bit, and LRU state (Table 4 accounting).
	MetaBitsPerPage(blocksPerPage int) int
	// TableBits is the policy's own SRAM table budget (FHT, ST, ...).
	TableBits(blocksPerPage int) int64
}

// PageAlloc fetches whole pages (§2.3's conventional page-based
// cache): maximal locality and hit ratio, maximal overfetch.
type PageAlloc struct{}

// Name implements AllocPolicy.
func (PageAlloc) Name() string { return "page" }

// OnPageMiss implements AllocPolicy: fetch everything.
func (PageAlloc) OnPageMiss(rec memtrace.Record, pageIdx uint64, block int, fullMask uint64) AllocDecision {
	return AllocDecision{Footprint: fullMask, FHTPtr: NoFHTPtr}
}

// OnBlockMiss implements AllocPolicy. Full pages never take block
// misses; nothing to account.
func (PageAlloc) OnBlockMiss(memtrace.Record) {}

// OnEvict implements AllocPolicy.
func (PageAlloc) OnEvict(*PageMeta) {}

// MetaBitsPerPage implements AllocPolicy: a dirty vector only (every
// block is valid while the page is resident, Table 4's page-based
// row).
func (PageAlloc) MetaBitsPerPage(blocksPerPage int) int { return blocksPerPage }

// TableBits implements AllocPolicy.
func (PageAlloc) TableBits(int) int64 { return 0 }

// DemandAlloc fetches only the demanded block (§3.1's sub-blocked
// bound): zero overfetch, a miss on every first touch.
type DemandAlloc struct{}

// Name implements AllocPolicy.
func (DemandAlloc) Name() string { return "subblock" }

// OnPageMiss implements AllocPolicy: fetch the demanded block alone.
func (DemandAlloc) OnPageMiss(rec memtrace.Record, pageIdx uint64, block int, fullMask uint64) AllocDecision {
	return AllocDecision{Footprint: 1 << block, FHTPtr: NoFHTPtr}
}

// OnBlockMiss implements AllocPolicy.
func (DemandAlloc) OnBlockMiss(memtrace.Record) {}

// OnEvict implements AllocPolicy.
func (DemandAlloc) OnEvict(*PageMeta) {}

// MetaBitsPerPage implements AllocPolicy: valid and dirty vectors
// (Table 4's sub-blocked row).
func (DemandAlloc) MetaBitsPerPage(blocksPerPage int) int { return 2 * blocksPerPage }

// TableBits implements AllocPolicy.
func (DemandAlloc) TableBits(int) int64 { return 0 }

// MappingPolicy decides tag-to-frame placement in the stacked array:
// whether a page's blocks pack into one DRAM row or spread across
// rows, and at which addresses.
type MappingPolicy interface {
	// Name identifies the policy in specs and reports.
	Name() string
	// Place decides, at allocation time, whether the page is spread
	// across rows. The decision is stored in the page's metadata so
	// hits and evictions address the same layout.
	Place(footprint uint64) bool
	// BlockAddr returns the stacked-DRAM address of block b of frame f
	// under the page's placement.
	BlockAddr(frame int64, block int, spread bool) memtrace.Addr
	// SpreadsRows reports whether the policy spreads every page across
	// stacked rows, leaving the stacked access stream with no
	// row-buffer locality. DRAM config selection keys off it: a
	// spreading policy gets the block design's close-page stacked
	// policy, whatever the composite is called.
	SpreadsRows() bool
}

// PageDirectMapping packs each frame into consecutive bytes — one
// stacked row for 2KB pages (§4.1): whole-page transfers ride a
// single activation.
type PageDirectMapping struct {
	// PageBytes is the frame stride.
	PageBytes int
}

// Name implements MappingPolicy.
func (PageDirectMapping) Name() string { return "pagedirect" }

// Place implements MappingPolicy: never spread.
func (PageDirectMapping) Place(uint64) bool { return false }

// BlockAddr implements MappingPolicy.
func (m PageDirectMapping) BlockAddr(frame int64, block int, spread bool) memtrace.Addr {
	return memtrace.Addr(frame*int64(m.PageBytes) + int64(block)*64)
}

// SpreadsRows implements MappingPolicy: packed frames keep row
// locality.
func (PageDirectMapping) SpreadsRows() bool { return false }

// BlockRowMapping spreads every page block-style: block b of every
// frame lives in a dedicated address region, so consecutive blocks of
// one page land in different stacked rows — the Loh-Hill placement's
// latency structure applied to page-granularity tags.
type BlockRowMapping struct {
	// Frames is the total frame count (capacity / page size).
	Frames int64
}

// Name implements MappingPolicy.
func (BlockRowMapping) Name() string { return "blockrow" }

// Place implements MappingPolicy: always spread.
func (BlockRowMapping) Place(uint64) bool { return true }

// BlockAddr implements MappingPolicy.
func (m BlockRowMapping) BlockAddr(frame int64, block int, spread bool) memtrace.Addr {
	return memtrace.Addr((int64(block)*m.Frames + frame) * 64)
}

// SpreadsRows implements MappingPolicy: every page spreads, so the
// stacked stream has no row locality to keep open.
func (BlockRowMapping) SpreadsRows() bool { return true }

// HybridMapping chooses placement per page from its predicted
// footprint, after Gemini's hybrid block/page mappings: dense pages
// pack into rows (page transfers stay single-activation), sparse
// pages spread block-style so a near-empty page does not pin a whole
// row's locality.
type HybridMapping struct {
	PageBytes int
	Frames    int64
	// SparseMax is the largest footprint (in blocks) still considered
	// sparse; zero means a quarter of the page.
	SparseMax int
}

// Name implements MappingPolicy.
func (HybridMapping) Name() string { return "hybrid" }

// Place implements MappingPolicy: spread sparse pages.
func (m HybridMapping) Place(footprint uint64) bool {
	max := m.SparseMax
	if max == 0 {
		max = m.PageBytes / 64 / 4
	}
	return popcount(footprint) <= max
}

// BlockAddr implements MappingPolicy.
func (m HybridMapping) BlockAddr(frame int64, block int, spread bool) memtrace.Addr {
	if spread {
		return memtrace.Addr((int64(block)*m.Frames + frame) * 64)
	}
	return memtrace.Addr(frame*int64(m.PageBytes) + int64(block)*64)
}

// SpreadsRows implements MappingPolicy: dense pages stay packed, so
// the stream retains enough locality for open-page policy.
func (HybridMapping) SpreadsRows() bool { return false }
