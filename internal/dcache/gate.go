package dcache

import (
	"fmt"
	"sort"

	"fpcache/internal/memtrace"
	"fpcache/internal/sram"
)

// GatePolicy is the replacement/fill axis of the composable engine:
// it decides whether a miss to a non-resident page is allowed to
// allocate at all. The engine's default (no gate) is plain LRU fill.
type GatePolicy interface {
	// Name identifies the policy in specs and reports.
	Name() string
	// Admit decides allocation for a gated miss. count is the page's
	// touch count including this access, firstTouch whether the filter
	// had no entry before it, victimFreq the would-be victim's
	// residency access count (only populated when NeedsVictimFreq).
	Admit(count uint32, firstTouch bool, victimFreq uint32) bool
	// NeedsVictimFreq reports whether Admit consumes victimFreq, so
	// the gate only scans the victim way when a policy actually
	// compares against it.
	NeedsVictimFreq() bool
}

// HotGatePolicy is the CHOP-style hotness threshold (§6.7): a page
// allocates only after Threshold touches of filter history. First
// touches never allocate.
type HotGatePolicy struct {
	Threshold uint32
}

// Name implements GatePolicy.
func (HotGatePolicy) Name() string { return "hotgate" }

// Admit implements GatePolicy.
func (p HotGatePolicy) Admit(count uint32, firstTouch bool, _ uint32) bool {
	return !firstTouch && count >= p.Threshold
}

// NeedsVictimFreq implements GatePolicy.
func (HotGatePolicy) NeedsVictimFreq() bool { return false }

// BansheeGatePolicy is the frequency-comparison fill of Yu et al.'s
// Banshee: a candidate page allocates only when its touch count
// exceeds the would-be victim's residency access count, so cold pages
// never displace warm ones and fill bandwidth tracks reuse instead of
// miss rate.
type BansheeGatePolicy struct{}

// Name implements GatePolicy.
func (BansheeGatePolicy) Name() string { return "banshee" }

// Admit implements GatePolicy.
func (BansheeGatePolicy) Admit(count uint32, _ bool, victimFreq uint32) bool {
	return count > victimFreq
}

// NeedsVictimFreq implements GatePolicy.
func (BansheeGatePolicy) NeedsVictimFreq() bool { return true }

// Gate wraps an Engine with a fill gate: resident pages delegate
// untouched, non-resident pages pass the gate's Admit decision or
// bypass to memory one block at a time. This is the composition that
// reproduces the CHOP-style hot-page filter (hotgate over a
// page-allocation engine) and opens frequency-gated hybrids
// (banshee over a footprint engine).
//
// The gate keeps its own Counters: hits/misses/bypasses are
// classified from the inner engine's Outcome (so partial-allocation
// engines report their block misses and singleton bypasses
// truthfully), while allocation traffic counters stay attributed to
// the inner engine. The hot-page rows recorded in
// internal/system/testdata/parity pin this accounting split.
type Gate struct {
	name        string
	inner       *Engine
	policy      GatePolicy
	filter      *sram.SetAssoc[uint32]
	fSets       int
	needsVictim bool
	ctr         Counters
}

// GateConfig assembles a Gate.
type GateConfig struct {
	// Name is the composed design's reported name.
	Name   string
	Engine *Engine
	Policy GatePolicy
	// FilterEntries/FilterWays size the touch-count filter (default
	// 64K entries, 16-way — the CHOP configuration).
	FilterEntries, FilterWays int
}

// NewGate builds the gated design.
func NewGate(cfg GateConfig) (*Gate, error) {
	if cfg.Engine == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("dcache: gate %q needs an engine and a policy", cfg.Name)
	}
	if cfg.FilterEntries <= 0 || cfg.FilterWays <= 0 || cfg.FilterEntries%cfg.FilterWays != 0 {
		cfg.FilterEntries, cfg.FilterWays = 64*1024, 16
	}
	return &Gate{
		name:        cfg.Name,
		inner:       cfg.Engine,
		policy:      cfg.Policy,
		filter:      sram.NewSetAssoc[uint32](cfg.FilterEntries/cfg.FilterWays, cfg.FilterWays),
		fSets:       cfg.FilterEntries / cfg.FilterWays,
		needsVictim: cfg.Policy.NeedsVictimFreq(),
	}, nil
}

// Name implements Design.
func (g *Gate) Name() string { return g.name }

// Counters implements Design.
func (g *Gate) Counters() Counters { return g.ctr }

// Unwrap exposes the inner engine (predictor statistics, density
// observers).
func (g *Gate) Unwrap() Design { return g.inner }

// Policy exposes the gate policy.
func (g *Gate) Policy() GatePolicy { return g.policy }

// MetadataBits implements Design: inner tags plus filter counters
// (28-bit page tag + 8-bit count per entry, the CHOP budget).
func (g *Gate) MetadataBits() int64 {
	entries := int64(g.filter.Sets() * g.filter.Ways())
	return g.inner.MetadataBits() + entries*(28+8)
}

// Access implements Design.
func (g *Gate) Access(rec memtrace.Record, ops []Op) Outcome {
	g.ctr.record(rec)
	if g.inner.Resident(rec.Addr) {
		// Resident page: delegate, classifying from the outcome — a
		// partial-allocation engine can still block-miss here.
		out := g.inner.Access(rec, ops)
		if out.Hit {
			g.ctr.Hits++
		} else {
			g.ctr.Misses++
		}
		return out
	}

	// Cold page: count the touch; allocate only if the policy admits.
	pageIdx, _ := pageAddrOf(rec.Addr, g.inner.geom.PageBytes)
	fSet := int(pageIdx % uint64(g.fSets))
	fTag := pageIdx / uint64(g.fSets)
	ent := g.filter.Lookup(fSet, fTag)
	first := ent == nil
	var count uint32
	if first {
		g.filter.Insert(fSet, fTag, 1)
		count = 1
	} else {
		ent.Value++
		count = ent.Value
	}
	g.ctr.Misses++
	var victimFreq uint32
	if g.needsVictim {
		victimFreq = g.inner.VictimFreq(rec.Addr)
	}
	if g.policy.Admit(count, first, victimFreq) {
		out := g.inner.Access(rec, ops)
		out.Hit = false
		if out.Bypass {
			// The inner allocation policy refused too (e.g. a predicted
			// singleton): surface it as a bypass at the gate as well.
			g.ctr.Bypasses++
		}
		return out
	}
	g.ctr.Bypasses++
	ops = append(ops[:0], Op{
		Level: OffChip, Addr: rec.Addr, Bytes: 64,
		Write: rec.Write, Critical: criticality(rec.Write), DependsOn: NoDep,
	})
	return Outcome{Bypass: true, TagCycles: g.inner.tagCycles, Ops: ops}
}

// CoverageCurve computes Figure 12's offline analysis: given
// per-page access counts, the minimum ideal cache size (in bytes,
// pageBytes pages) needed to capture each fraction of total accesses,
// assuming a perfect predictor and ideal replacement (§6.7).
func CoverageCurve(counts map[uint64]uint64, pageBytes int, fractions []float64) []int64 {
	tot := uint64(0)
	sorted := make([]uint64, 0, len(counts))
	for _, c := range counts {
		sorted = append(sorted, c)
		tot += c
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })

	out := make([]int64, len(fractions))
	cum := uint64(0)
	pageN := 0
	for i, f := range fractions {
		want := uint64(f * float64(tot))
		for cum < want && pageN < len(sorted) {
			cum += sorted[pageN]
			pageN++
		}
		out[i] = int64(pageN) * int64(pageBytes)
	}
	return out
}
