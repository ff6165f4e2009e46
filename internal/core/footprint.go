package core

import (
	"math/bits"

	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
	"fpcache/internal/sram"
)

// pageEntry is the Footprint Cache tag payload: the Table 2 block
// state vectors, the FHT pointer planted at allocation, and the
// predicted footprint kept for accuracy accounting.
type pageEntry struct {
	vec       PageVectors
	fhtPtr    Ptr
	predicted uint64
}

// Config parametrizes a Footprint Cache. The defaults in Default()
// are the paper's §5.2 configuration.
type Config struct {
	Geometry  dcache.PageGeometry
	TagCycles int
	// FHTEntries/FHTWays size the Footprint History Table (16K
	// entries = 144KB in the paper).
	FHTEntries, FHTWays int
	// STEntries/STWays size the Singleton Table (512 entries = 3KB).
	STEntries, STWays int
	// SingletonOpt enables the capacity optimization (§4.4); the
	// ablation of §6.5 turns it off.
	SingletonOpt bool
	// Feedback selects the FHT update policy on eviction. The paper
	// replaces the stored footprint with the most recent demanded
	// vector (§4.2); FeedbackUnion is an ablation that accumulates
	// instead, trading overprediction for coverage.
	Feedback FeedbackPolicy
}

// FeedbackPolicy selects how eviction-time demanded vectors update
// the FHT.
type FeedbackPolicy int

const (
	// FeedbackReplace is the paper's policy: the most recent footprint
	// wins, keeping the FHT in harmony with the execution phase.
	FeedbackReplace FeedbackPolicy = iota
	// FeedbackUnion ORs demanded vectors into the stored footprint:
	// coverage can only grow, and so can overfetch.
	FeedbackUnion
)

// String implements fmt.Stringer.
func (p FeedbackPolicy) String() string {
	if p == FeedbackUnion {
		return "union"
	}
	return "replace"
}

// VariantName returns the design name a configuration reports — the
// ablation variants carry their own names so specs and reports can
// tell them apart. Cache.Name and FootprintPolicy.Name both defer
// here so the monolith and the composed policy can never drift.
func (c Config) VariantName() string {
	switch {
	case !c.SingletonOpt:
		return "footprint-nosingleton"
	case c.Feedback == FeedbackUnion:
		return "footprint-union"
	default:
		return "footprint"
	}
}

// Default returns the paper's configuration for a given capacity:
// 2KB pages, 16-way tag array, 16K-entry FHT, 512-entry ST, singleton
// optimization on.
func Default(capacityBytes int64) Config {
	return Config{
		Geometry:     dcache.PageGeometry{CapacityBytes: capacityBytes, PageBytes: 2048, Ways: 16},
		FHTEntries:   16 * 1024,
		FHTWays:      16,
		STEntries:    512,
		STWays:       8,
		SingletonOpt: true,
	}
}

// Stats holds Footprint-specific counters on top of dcache.Counters.
type Stats struct {
	// UnderpredMisses are accesses to resident pages whose block was
	// not fetched (the predictor's per-block miss cost, §3.1).
	UnderpredMisses uint64
	// SingletonBypasses are page misses served without allocation.
	SingletonBypasses uint64
	// STCorrections are second touches to bypassed pages.
	STCorrections uint64
	// FHTCold are triggering misses with no FHT entry.
	FHTCold uint64
	// CoveredBlocks / UnderBlocks / OverBlocks accumulate, at every
	// eviction, demanded∧predicted, demanded∧¬predicted, and
	// predicted∧¬demanded block counts (Fig. 8's three bars).
	CoveredBlocks, UnderBlocks, OverBlocks uint64
}

// Add returns s plus o counter-wise, used to merge per-interval
// measurements; all fields are monotonic counters, so the sum over
// intervals equals one uninterrupted measurement exactly.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		UnderpredMisses:   s.UnderpredMisses + o.UnderpredMisses,
		SingletonBypasses: s.SingletonBypasses + o.SingletonBypasses,
		STCorrections:     s.STCorrections + o.STCorrections,
		FHTCold:           s.FHTCold + o.FHTCold,
		CoveredBlocks:     s.CoveredBlocks + o.CoveredBlocks,
		UnderBlocks:       s.UnderBlocks + o.UnderBlocks,
		OverBlocks:        s.OverBlocks + o.OverBlocks,
	}
}

// Sub returns s minus o, used to exclude warmup from measurements.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		UnderpredMisses:   s.UnderpredMisses - o.UnderpredMisses,
		SingletonBypasses: s.SingletonBypasses - o.SingletonBypasses,
		STCorrections:     s.STCorrections - o.STCorrections,
		FHTCold:           s.FHTCold - o.FHTCold,
		CoveredBlocks:     s.CoveredBlocks - o.CoveredBlocks,
		UnderBlocks:       s.UnderBlocks - o.UnderBlocks,
		OverBlocks:        s.OverBlocks - o.OverBlocks,
	}
}

// Coverage returns covered/(covered+under): the fraction of demanded
// blocks the predictor fetched ahead of use.
func (s Stats) Coverage() float64 {
	d := s.CoveredBlocks + s.UnderBlocks
	if d == 0 {
		return 0
	}
	return float64(s.CoveredBlocks) / float64(d)
}

// Overprediction returns over/(covered+under): overfetched blocks
// relative to demanded blocks, the paper's Fig. 8 normalization.
func (s Stats) Overprediction() float64 {
	d := s.CoveredBlocks + s.UnderBlocks
	if d == 0 {
		return 0
	}
	return float64(s.OverBlocks) / float64(d)
}

// Cache is the Footprint Cache design (implements dcache.Design).
type Cache struct {
	cfg  Config
	sets int
	bpp  int
	tags *sram.SetAssoc[pageEntry]
	fht  *FHT
	st   *ST

	ctr   dcache.Counters
	extra Stats

	// OnEvict, if set, observes eviction densities (Fig. 4).
	OnEvict dcache.DensityObserver
}

// New builds a Footprint Cache.
func New(cfg Config) (*Cache, error) {
	sets, bpp, err := cfg.Geometry.Validate()
	if err != nil {
		return nil, err
	}
	fht, err := NewFHT(cfg.FHTEntries, cfg.FHTWays)
	if err != nil {
		return nil, err
	}
	st, err := NewST(cfg.STEntries, cfg.STWays)
	if err != nil {
		return nil, err
	}
	return &Cache{
		cfg:  cfg,
		sets: sets,
		bpp:  bpp,
		tags: sram.NewSetAssoc[pageEntry](sets, cfg.Geometry.Ways),
		fht:  fht,
		st:   st,
	}, nil
}

// Name implements dcache.Design.
func (c *Cache) Name() string { return c.cfg.VariantName() }

// Counters implements dcache.Design.
func (c *Cache) Counters() dcache.Counters { return c.ctr }

// Extra returns the Footprint-specific statistics.
func (c *Cache) Extra() Stats { return c.extra }

// FHTStats exposes predictor table counters.
func (c *Cache) FHTStats() (queries, cold, updates uint64) {
	return c.fht.Queries, c.fht.Cold, c.fht.Updates
}

// MetadataBits computes the Footprint Cache SRAM budget for a
// configuration: the tag array (address tag, page-valid bit, LRU, the
// two Table 2 vectors, and an FHT pointer) plus the FHT and ST.
// Reproduces Table 4's Footprint tag storage.
func MetadataBits(cfg Config) int64 {
	sets, bpp, err := cfg.Geometry.Validate()
	if err != nil {
		panic(err)
	}
	pages := cfg.Geometry.CapacityBytes / int64(cfg.Geometry.PageBytes)
	tagBits := 40 - bits.TrailingZeros64(uint64(cfg.Geometry.PageBytes)) - lruBits(sets)
	fhtPtrBits := lruBits(cfg.FHTEntries)
	per := int64(tagBits + 1 + lruBits(cfg.Geometry.Ways) + 2*bpp + fhtPtrBits)
	fhtBits := int64(cfg.FHTEntries) * int64(40+bpp)
	stBits := int64(cfg.STEntries) * 48
	return pages*per + fhtBits + stBits
}

// MetadataBits implements dcache.Design.
func (c *Cache) MetadataBits() int64 { return MetadataBits(c.cfg) }

func (c *Cache) frameAddr(set, way int) memtrace.Addr {
	return memtrace.Addr((int64(set)*int64(c.cfg.Geometry.Ways) + int64(way)) * int64(c.cfg.Geometry.PageBytes))
}

// Access implements dcache.Design. The flow follows §4.2-4.4: tag
// lookup; on a page hit serve the block (or demand-fetch an
// unpredicted block); on a page miss consult the ST and FHT, bypass
// predicted singletons, otherwise evict (feeding the victim's
// demanded vector back to the FHT through the stored pointer) and
// fetch the predicted footprint in one shot.
func (c *Cache) Access(rec memtrace.Record, ops []dcache.Op) dcache.Outcome {
	c.recordAccess(rec)
	pageIdx := uint64(rec.Addr) / uint64(c.cfg.Geometry.PageBytes)
	block := int(uint64(rec.Addr) % uint64(c.cfg.Geometry.PageBytes) / 64)
	set := int(pageIdx % uint64(c.sets))
	tag := pageIdx / uint64(c.sets)
	bit := uint64(1) << block

	if e := c.tags.Lookup(set, tag); e != nil {
		if e.Value.vec.State(block).Present() {
			// Block hit: serve from the stacked array.
			c.ctr.Hits++
			e.Value.vec.Demand(block, rec.Write)
			ops = append(ops[:0], dcache.Op{
				Level: dcache.Stacked, Addr: c.frameAddr(set, e.Way()) + memtrace.Addr(block*64),
				Bytes: 64, Write: rec.Write, Critical: !rec.Write, DependsOn: dcache.NoDep,
			})
			return dcache.Outcome{Hit: true, TagCycles: c.cfg.TagCycles, Ops: ops}
		}
		// Underprediction: page resident, block not fetched. Fetch it
		// alone, mark demanded (a write carries its own 64B block and
		// skips the fetch).
		c.ctr.Misses++
		c.extra.UnderpredMisses++
		e.Value.vec.Fill(bit)
		e.Value.vec.Demand(block, rec.Write)
		frame := c.frameAddr(set, e.Way()) + memtrace.Addr(block*64)
		if rec.Write {
			ops = append(ops[:0], dcache.Op{Level: dcache.Stacked, Addr: frame, Bytes: 64, Write: true, DependsOn: dcache.NoDep})
			return dcache.Outcome{TagCycles: c.cfg.TagCycles, Ops: ops}
		}
		ops = append(ops[:0],
			dcache.Op{Level: dcache.OffChip, Addr: rec.Addr, Bytes: 64, Critical: true, DependsOn: dcache.NoDep},
			dcache.Op{Level: dcache.Stacked, Addr: frame, Bytes: 64, Write: true, DependsOn: 0},
		)
		return dcache.Outcome{TagCycles: c.cfg.TagCycles, Ops: ops}
	}

	// Triggering miss (§4.2).
	c.ctr.Misses++

	// Singleton correction: was this page bypassed before with a
	// different offset?
	var correctedKey stEntry
	corrected := false
	if c.cfg.SingletonOpt {
		if pc, off, ok := c.st.Check(pageIdx, block); ok {
			c.extra.STCorrections++
			correctedKey = stEntry{pc: pc, offset: off}
			corrected = true
		}
	}

	footprint, ptr, known := c.fht.Predict(rec.PC, block)
	if !known {
		c.extra.FHTCold++
		ptr = c.fht.Allocate(rec.PC, block, bit)
		footprint = 0
	}
	footprint |= bit // the demanded block is always fetched

	if corrected {
		// Re-key learning to the instruction that first (wrongly)
		// classified the page as singleton: fetch its block too and
		// point feedback at its FHT entry (§4.4).
		footprint |= 1 << correctedKey.offset
		ptr = c.fht.Allocate(correctedKey.pc, correctedKey.offset, footprint)
	} else if c.cfg.SingletonOpt && known && popcount(footprint) == 1 {
		// Predicted singleton: do not allocate; forward the block and
		// note the bypass in the ST (§4.4).
		c.ctr.Bypasses++
		c.extra.SingletonBypasses++
		c.st.Note(pageIdx, rec.PC, block)
		ops = append(ops[:0], dcache.Op{
			Level: dcache.OffChip, Addr: rec.Addr, Bytes: 64,
			Write: rec.Write, Critical: !rec.Write, DependsOn: dcache.NoDep,
		})
		return dcache.Outcome{Bypass: true, TagCycles: c.cfg.TagCycles, Ops: ops}
	}

	// Allocate the page: evict the victim with FHT feedback, then
	// fetch the whole footprint at once (§3).
	ops = ops[:0]
	victim := c.tags.Victim(set)
	frame := c.frameAddr(set, victim.Way())
	if victim.Valid() {
		ops = c.evict(set, victim, frame, ops)
	}

	// Fetch the footprint: the demanded block first (critical, unless
	// this is a writeback carrying its own data), then the remaining
	// predicted blocks streaming from the page's off-chip row, then
	// the fill into the page's frame (one stacked row for 2KB pages).
	fetchBlocks := popcount(footprint)
	crit := dcache.NoDep
	if !rec.Write {
		crit = len(ops)
		ops = append(ops, dcache.Op{Level: dcache.OffChip, Addr: rec.Addr, Bytes: 64, Critical: true, DependsOn: dcache.NoDep})
	}
	if fetchBlocks > 1 {
		rest := len(ops)
		pageBase := memtrace.Addr(pageIdx * uint64(c.cfg.Geometry.PageBytes))
		ops = append(ops, dcache.Op{Level: dcache.OffChip, Addr: pageBase, Bytes: (fetchBlocks - 1) * 64, DependsOn: crit})
		ops = append(ops, dcache.Op{Level: dcache.Stacked, Addr: frame, Bytes: fetchBlocks * 64, Write: true, DependsOn: rest})
	} else {
		ops = append(ops, dcache.Op{Level: dcache.Stacked, Addr: frame + memtrace.Addr(block*64), Bytes: 64, Write: true, DependsOn: crit})
	}

	entry := pageEntry{fhtPtr: ptr, predicted: footprint}
	entry.vec.Fill(footprint)
	entry.vec.Demand(block, rec.Write)
	c.tags.Replace(victim, tag, entry)
	c.ctr.PageAllocs++
	return dcache.Outcome{TagCycles: c.cfg.TagCycles, Ops: ops}
}

// evict retires a victim page: accounts prediction accuracy, sends
// the demanded vector to the FHT through the stored pointer, and
// emits writeback operations for dirty blocks.
func (c *Cache) evict(set int, victim *sram.Entry[pageEntry], frame memtrace.Addr, ops []dcache.Op) []dcache.Op {
	c.ctr.PageEvicts++
	v := victim.Value
	demanded := v.vec.DemandedMask()
	if c.OnEvict != nil {
		c.OnEvict(v.vec.DemandedCount(), c.bpp)
	}
	c.extra.CoveredBlocks += uint64(popcount(demanded & v.predicted))
	c.extra.UnderBlocks += uint64(popcount(demanded &^ v.predicted))
	c.extra.OverBlocks += uint64(popcount(v.predicted &^ demanded))
	if c.cfg.Feedback == FeedbackUnion {
		c.fht.UpdateUnion(v.fhtPtr, demanded)
	} else {
		c.fht.Update(v.fhtPtr, demanded)
	}

	if dirty := v.vec.DirtyMask(); dirty != 0 {
		c.ctr.DirtyEvicts++
		n := popcount(dirty)
		victimBase := memtrace.Addr(victim.Tag*uint64(c.sets)+uint64(set)) * memtrace.Addr(c.cfg.Geometry.PageBytes)
		rd := len(ops)
		ops = append(ops,
			dcache.Op{Level: dcache.Stacked, Addr: frame, Bytes: n * 64, DependsOn: dcache.NoDep},
			dcache.Op{Level: dcache.OffChip, Addr: victimBase, Bytes: n * 64, Write: true, DependsOn: rd},
		)
	}
	return ops
}

func (c *Cache) recordAccess(rec memtrace.Record) {
	if rec.Write {
		c.ctr.Writes++
	} else {
		c.ctr.Reads++
	}
}

func popcount(v uint64) int { return bits.OnesCount64(v) }
