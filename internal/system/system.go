// Package system assembles pods and runs simulations in the two modes
// the paper's methodology uses (§5.4): fast functional (trace-driven)
// simulation for miss ratios, traffic, and predictor studies, and
// event-driven timing simulation for performance and energy.
package system

import (
	"fpcache/internal/core"
	"fpcache/internal/dcache"
	"fpcache/internal/dram"
	"fpcache/internal/energy"
	"fpcache/internal/memtrace"
)

// DRAMConfigsFor returns the off-chip and stacked DRAM configurations
// tuned per design, following §5.2: the block-based design (and the
// blockless baseline/ideal points) use close-page policy and
// fine-grained interleaving because their access streams have no row
// locality; page-granularity designs use open-page and 2KB
// interleaving.
func DRAMConfigsFor(designName string) (off, stk dram.Config) {
	off = dram.OffChipDDR3_1600()
	stk = dram.StackedDDR3_3200()
	switch designName {
	case "block", "baseline", "ideal":
		off.Policy = dram.ClosePage
		off.InterleaveBytes = 64
		stk.Policy = dram.ClosePage
		// The block design's set-to-row placement already spreads
		// consecutive blocks across rows; rows rotate channels.
		stk.InterleaveBytes = 2048
	default:
		off.Policy = dram.OpenPage
		off.InterleaveBytes = 2048
		stk.Policy = dram.OpenPage
		stk.InterleaveBytes = 2048
	}
	return off, stk
}

// DRAMConfigsForDesign returns the DRAM configurations for a built
// design, following its actual policies rather than its name: a
// composed engine whose mapping policy spreads every page block-style
// (MappingPolicy.SpreadsRows) gets the block design's close-page
// stacked policy — its stacked stream has no row locality to keep
// open — whatever the composite is called. Partitioned designs route
// through their cache slice's engine; the part-of-memory region is
// page-contiguous and row-friendly either way. Canonical designs
// resolve exactly as DRAMConfigsFor.
func DRAMConfigsForDesign(d dcache.Design) (off, stk dram.Config) {
	off, stk = DRAMConfigsFor(d.Name())
	if eng := engineOf(d); eng != nil && eng.Mapping().SpreadsRows() {
		stk.Policy = dram.ClosePage
	}
	return off, stk
}

// engineOf unwraps a design to its composed engine, if any.
func engineOf(d dcache.Design) *dcache.Engine { return dcache.EngineOf(d) }

// FunctionalResult summarizes a functional run. All counters exclude
// the warmup prefix.
type FunctionalResult struct {
	Design       string
	Refs         uint64
	Instructions uint64
	Counters     dcache.Counters
	OffChip      dram.Stats
	Stacked      dram.Stats
	// Footprint carries predictor statistics when the design is a
	// Footprint Cache, nil otherwise.
	Footprint *core.Stats
	// Partition carries partition statistics (memory-region hits,
	// resize flush/migration counts, current split) when the design
	// partitions its stacked capacity, nil otherwise.
	Partition *dcache.PartitionStats
}

// MissRatio is the DRAM cache miss ratio.
func (r FunctionalResult) MissRatio() float64 { return r.Counters.MissRatio() }

// OffChipBytesPerRef normalizes off-chip traffic by references — the
// basis of Figure 5b once divided by the baseline's value.
func (r FunctionalResult) OffChipBytesPerRef() float64 {
	if r.Refs == 0 {
		return 0
	}
	return float64(r.OffChip.DataBytes()) / float64(r.Refs)
}

// OffChipEnergy returns the off-chip dynamic energy breakdown.
func (r FunctionalResult) OffChipEnergy() energy.Breakdown {
	return energy.OffChip().Of(r.OffChip)
}

// StackedEnergy returns the stacked dynamic energy breakdown.
func (r FunctionalResult) StackedEnergy() energy.Breakdown {
	return energy.Stacked().Of(r.Stacked)
}

// ResizePlan is the static ResizePolicy: every PeriodRefs measured
// references the design's split moves to the next fraction in
// Fractions (cycled), unconditionally. Both runners apply policies at
// the same trace-order reference boundaries, so a resizing timing run
// stays byte-identical to its functional counterpart. The adaptive
// counterpart is AdaptivePolicy (internal/control); policy.go defines
// the shared interface.
type ResizePlan struct {
	// PeriodRefs is the resize cadence in measured references.
	PeriodRefs int
	// Fractions are the successive memory fractions applied, cycled.
	Fractions []float64
}

// Resizable is implemented by designs whose stacked-capacity split
// can move at run time (dcache.Partitioned). Resize appends the
// transition's DRAM operations — dirty writebacks, migrations — to
// ops.
type Resizable interface {
	Resize(memFraction float64, ops []dcache.Op) []dcache.Op
}

// RunFunctional drives records from src through the design,
// accounting DRAM operations in functional row trackers. The first
// warmupRefs records warm the structures without being measured —
// mirroring the paper's use of half of each trace for warmup (§5.4).
// maxRefs <= 0 drains the source.
func RunFunctional(design dcache.Design, src memtrace.Source, warmupRefs, maxRefs int) (FunctionalResult, error) {
	return RunFunctionalResized(design, src, warmupRefs, maxRefs, nil)
}

// RunFunctionalResized is RunFunctional with a partition resize
// policy: at every policy epoch boundary of measured references the
// policy sees the design's cumulative telemetry and may move the
// split, and the transition's DRAM operations (writebacks,
// migrations) are accounted like any other traffic. A nil or disabled
// policy, or a design that is not Resizable, degrades to a plain
// functional run. A static schedule passes a *ResizePlan; the
// adaptive controller passes an AdaptivePolicy.
//
// The warmup/measure split is SimState's Warm and Measure, so a run
// restored from a warm-state snapshot (SimState.Restore) continues
// byte-identically to this uninterrupted form.
//
// The returned error is a typed fault (fault.ErrInvalidOps) when the
// design emits a malformed operation list; it fails this one run, and
// the sweep executor turns it into a per-point failure report instead
// of a process crash.
func RunFunctionalResized(design dcache.Design, src memtrace.Source, warmupRefs, maxRefs int, pol ResizePolicy) (FunctionalResult, error) {
	s := NewSimState(design)
	s.SetPolicy(pol)
	if err := s.Warm(src, warmupRefs); err != nil {
		return FunctionalResult{Design: design.Name()}, err
	}
	return s.Measure(src, maxRefs)
}

// partitionExtra locates the partition statistics of a design, nil
// for designs without a partitioned stacked capacity.
func partitionExtra(d dcache.Design) func() dcache.PartitionStats {
	if p, ok := d.(*dcache.Partitioned); ok {
		return p.Partition
	}
	return nil
}

// footprintExtra locates the Footprint predictor statistics of a
// design, whichever shape it takes: a composed engine whose
// allocation policy is footprint-predicted, or a fill-gated wrapper
// around one. Returns nil for designs without a predictor.
func footprintExtra(d dcache.Design) func() core.Stats {
	switch v := d.(type) {
	case *dcache.Engine:
		if fp, ok := v.Alloc().(*core.FootprintPolicy); ok {
			return fp.Extra
		}
	case interface{ Unwrap() dcache.Design }:
		return footprintExtra(v.Unwrap())
	}
	return nil
}

// applyOps replays an outcome's operations on the functional
// trackers. Ops are ordered so dependencies precede dependents, so
// in-order replay respects row-buffer causality.
func applyOps(ops []dcache.Op, offT, stkT *dram.Tracker) {
	for _, op := range ops {
		t := stkT
		if op.Level == dcache.OffChip {
			t = offT
		}
		t.Access(op.Addr, op.Bytes, op.Write)
	}
}
