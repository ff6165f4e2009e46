package core

import (
	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
)

// FootprintPolicy is the paper's contribution as the composable
// engine's allocation axis (dcache.AllocPolicy): the FHT prediction,
// Singleton Table filtering, and eviction-time feedback of §4.2-4.4,
// with the tag array owned by the generic engine. Composed as
// footprint+pagedirect+lru it is the paper's Footprint Cache, pinned
// by the recorded parity rows in internal/system and by the reference
// model in this package's tests; composed with other mapping or fill
// policies it opens the hybrid design space the paper never explored.
type FootprintPolicy struct {
	cfg   Config
	fht   *FHT
	st    *ST
	extra Stats
}

// NewFootprintPolicy builds the allocation policy from a Footprint
// configuration (Geometry is owned by the engine and ignored here).
func NewFootprintPolicy(cfg Config) (*FootprintPolicy, error) {
	fht, err := NewFHT(cfg.FHTEntries, cfg.FHTWays)
	if err != nil {
		return nil, err
	}
	st, err := NewST(cfg.STEntries, cfg.STWays)
	if err != nil {
		return nil, err
	}
	return &FootprintPolicy{cfg: cfg, fht: fht, st: st}, nil
}

// Name implements dcache.AllocPolicy.
func (p *FootprintPolicy) Name() string { return p.cfg.VariantName() }

// Extra returns the Footprint-specific statistics.
func (p *FootprintPolicy) Extra() Stats { return p.extra }

// FHTStats exposes predictor table counters.
func (p *FootprintPolicy) FHTStats() (queries, cold, updates uint64) {
	return p.fht.Queries, p.fht.Cold, p.fht.Updates
}

// OnPageMiss implements dcache.AllocPolicy — the triggering-miss flow
// of §4.2 and §4.4: consult the ST for singleton corrections, predict
// the footprint from the FHT (allocating an entry on cold misses),
// and bypass predicted singletons.
func (p *FootprintPolicy) OnPageMiss(rec memtrace.Record, pageIdx uint64, block int, fullMask uint64) dcache.AllocDecision {
	bit := uint64(1) << block

	// Singleton correction: was this page bypassed before with a
	// different offset?
	var correctedKey stEntry
	corrected := false
	if p.cfg.SingletonOpt {
		if pc, off, ok := p.st.Check(pageIdx, block); ok {
			p.extra.STCorrections++
			correctedKey = stEntry{pc: pc, offset: off}
			corrected = true
		}
	}

	footprint, ptr, known := p.fht.Predict(rec.PC, block)
	if !known {
		p.extra.FHTCold++
		ptr = p.fht.Allocate(rec.PC, block, bit)
		footprint = 0
	}
	footprint |= bit // the demanded block is always fetched

	if corrected {
		// Re-key learning to the instruction that first (wrongly)
		// classified the page as singleton: fetch its block too and
		// point feedback at its FHT entry (§4.4).
		footprint |= 1 << correctedKey.offset
		ptr = p.fht.Allocate(correctedKey.pc, correctedKey.offset, footprint)
	} else if p.cfg.SingletonOpt && known && popcount(footprint) == 1 {
		// Predicted singleton: do not allocate; note the bypass in the
		// ST so a second touch can correct it (§4.4).
		p.extra.SingletonBypasses++
		p.st.Note(pageIdx, rec.PC, block)
		return dcache.AllocDecision{Bypass: true, FHTPtr: dcache.NoFHTPtr}
	}

	return dcache.AllocDecision{Footprint: footprint, FHTPtr: int32(ptr)}
}

// OnBlockMiss implements dcache.AllocPolicy: a resident page whose
// block was not fetched is the predictor's per-block miss cost
// (§3.1).
func (p *FootprintPolicy) OnBlockMiss(memtrace.Record) {
	p.extra.UnderpredMisses++
}

// OnEvict implements dcache.AllocPolicy: accuracy accounting (Fig. 8)
// and FHT feedback through the pointer planted at allocation.
func (p *FootprintPolicy) OnEvict(meta *dcache.PageMeta) {
	demanded := meta.Demanded
	p.extra.CoveredBlocks += uint64(popcount(demanded & meta.Predicted))
	p.extra.UnderBlocks += uint64(popcount(demanded &^ meta.Predicted))
	p.extra.OverBlocks += uint64(popcount(meta.Predicted &^ demanded))
	if p.cfg.Feedback == FeedbackUnion {
		p.fht.UpdateUnion(Ptr(meta.FHTPtr), demanded)
	} else {
		p.fht.Update(Ptr(meta.FHTPtr), demanded)
	}
}

// MetaBitsPerPage implements dcache.AllocPolicy: the two Table 2
// vectors plus the FHT pointer.
func (p *FootprintPolicy) MetaBitsPerPage(blocksPerPage int) int {
	return 2*blocksPerPage + lruBits(p.cfg.FHTEntries)
}

// TableBits implements dcache.AllocPolicy: the FHT and ST budgets
// (144KB + 3KB at the paper's configuration).
func (p *FootprintPolicy) TableBits(blocksPerPage int) int64 {
	fhtBits := int64(p.cfg.FHTEntries) * int64(40+blocksPerPage)
	stBits := int64(p.cfg.STEntries) * 48
	return fhtBits + stBits
}
