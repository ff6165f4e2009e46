// Package core implements the paper's contribution: Footprint Cache —
// a die-stacked DRAM cache that allocates 1-4KB pages, fetches only
// each page's predicted footprint of 64B blocks, learns footprints in
// a PC&offset-indexed Footprint History Table (FHT), and filters
// singleton pages through a Singleton Table (ST). The design runs as
// an allocation policy (FootprintPolicy) on the composable engine in
// internal/dcache.
package core

import (
	"math/bits"

	"fpcache/internal/dcache"
)

// Config parametrizes a Footprint Cache. The defaults in Default()
// are the paper's §5.2 configuration.
type Config struct {
	Geometry dcache.PageGeometry
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
// tell them apart. FootprintPolicy.Name and its snapshot header both
// defer here.
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

func popcount(v uint64) int { return bits.OnesCount64(v) }
