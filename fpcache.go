// Package fpcache is the public API of the Footprint Cache
// reproduction (Jevdjic, Volos, Falsafi — ISCA 2013, "Die-Stacked
// DRAM Caches for Servers: Hit Ratio, Latency, or Bandwidth? Have It
// All with Footprint Cache").
//
// It exposes the paper's DRAM cache designs (block-based, page-based,
// sub-blocked, Footprint, hot-page filter, plus baseline and ideal
// bounds), calibrated synthetic workloads standing in for CloudSuite
// 1.0, and the two simulation modes of the paper's methodology:
// functional runs for miss ratio / traffic / predictor studies and
// event-driven timing runs for performance and energy.
//
// Quick start:
//
//	cfg := fpcache.Config{Workload: fpcache.WebSearch, Design: fpcache.Footprint,
//		PaperCapacityMB: 256, Refs: 2_000_000}
//	res, err := fpcache.RunFunctional(cfg)
//	fmt.Println(res.MissRatio())
package fpcache

import (
	"fmt"

	"fpcache/internal/control"
	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
	"fpcache/internal/synth"
	"fpcache/internal/system"
)

// Workload names (the paper's §5.3 evaluation set).
const (
	DataServing     = synth.DataServing
	MapReduce       = synth.MapReduce
	Multiprogrammed = synth.Multiprogrammed
	SATSolver       = synth.SATSolver
	WebFrontend     = synth.WebFrontend
	WebSearch       = synth.WebSearch
	// PhaseShift is the phase-shifting stress workload beyond the
	// paper's set (see the "adaptive" experiment).
	PhaseShift = synth.PhaseShift
)

// Workloads returns all workload names in presentation order.
func Workloads() []string { return synth.Names() }

// DesignKind selects a DRAM cache organization: one of the paper's
// canonical kinds below, or a composite policy spec — "+"-joined
// component names drawn from the policy axes (see Policies):
// allocation granularity (page, subblock, footprint, ...), mapping
// (pagedirect, blockrow, hybrid), fill (lru, hotgate, banshee), and
// stacked-capacity partition (memcache:<pct>, memlow:<pct>).
// "footprint+banshee" is a Footprint Cache behind a frequency-gated
// fill; "page+blockrow" is a page cache with block-style row spread;
// "footprint+memcache:50" dedicates half the stacked capacity to
// directly addressed memory and runs the Footprint engine on the
// rest, resizable at run time (Config.ResizeFractions).
type DesignKind string

// The designs compared in the paper.
const (
	// Baseline is the system without a DRAM cache.
	Baseline DesignKind = "baseline"
	// Block is the state-of-the-art block-based design (§5.2,
	// Loh-Hill: tags in DRAM + MissMap).
	Block DesignKind = "block"
	// Page is the conventional page-based design (§2.3).
	Page DesignKind = "page"
	// Subblock allocates pages but fetches blocks on demand (§3.1's
	// zero-overprediction bound).
	Subblock DesignKind = "subblock"
	// Footprint is the paper's contribution.
	Footprint DesignKind = "footprint"
	// FootprintNoSingleton disables the §4.4 capacity optimization
	// (the §6.5 ablation).
	FootprintNoSingleton DesignKind = "footprint-nosingleton"
	// FootprintUnion accumulates FHT feedback with OR instead of the
	// paper's replace-with-most-recent policy (a design-choice
	// ablation; see internal/experiments).
	FootprintUnion DesignKind = "footprint-union"
	// HotPage is the CHOP-like filter cache of §6.7.
	HotPage DesignKind = "hotpage"
	// Ideal never misses and has no tag overhead (§6.3).
	Ideal DesignKind = "ideal"
)

// Hybrid compositions the paper never evaluated, reachable since the
// policy-composable engine. Any other composite spec is equally valid
// as a DesignKind; these two are the showcased points.
const (
	// FootprintBanshee puts footprint-predicted allocation behind a
	// Banshee-style frequency-gated fill: footprint traffic efficiency
	// plus fill-bandwidth control.
	FootprintBanshee DesignKind = "footprint+banshee"
	// FootprintHybrid pairs footprint allocation with Gemini-style
	// hybrid mapping: sparse pages spread block-style instead of
	// pinning whole stacked rows.
	FootprintHybrid DesignKind = "footprint+hybrid"
)

// Designs returns the kinds in the paper's comparison order.
func Designs() []DesignKind {
	return []DesignKind{Baseline, Block, Page, Subblock, Footprint, FootprintNoSingleton, FootprintUnion, HotPage, Ideal}
}

// HybridDesigns returns the showcased policy compositions beyond the
// paper's fixed points.
func HybridDesigns() []DesignKind {
	return []DesignKind{FootprintBanshee, FootprintHybrid}
}

// PolicySet lists the engine's composable policy names per axis.
type PolicySet struct {
	Alloc   []string
	Mapping []string
	Fill    []string
	// Partition policies split the stacked capacity between directly
	// addressed memory and the cache engine; spec components carry
	// the memory share as a percentage ("memcache:50").
	Partition []string
}

// Policies returns the valid policy names for composite DesignKind
// specs.
func Policies() PolicySet {
	return PolicySet{
		Alloc:     system.AllocPolicies(),
		Mapping:   system.MappingPolicies(),
		Fill:      system.FillPolicies(),
		Partition: system.PartitionPolicies(),
	}
}

// DefaultScale is the capacity scale factor applied to paper-sized
// caches and datasets (DESIGN.md §2): 64-512MB caches run as 4-32MB
// with proportionally scaled datasets, preserving miss-ratio shape
// under the power-law capacity relation the paper itself leans on
// (§6.5, §7).
const DefaultScale = 1.0 / 16

// FunctionalResult, TimingResult, and PartitionStats alias the
// simulation result types so facade callers never import internal
// packages.
type (
	FunctionalResult = system.FunctionalResult
	TimingResult     = system.TimingResult
	PartitionStats   = dcache.PartitionStats
)

// Config describes one simulation.
type Config struct {
	// Workload is one of the workload names.
	Workload string
	// Design selects the cache organization.
	Design DesignKind
	// PaperCapacityMB is the paper-scale stacked capacity (64, 128,
	// 256, 512). Ignored by Baseline and Ideal.
	PaperCapacityMB int
	// Scale overrides DefaultScale when non-zero.
	Scale float64
	// PageBytes overrides the 2KB page size (Fig. 8 uses 1/2/4KB).
	PageBytes int
	// FHTEntries overrides the 16K-entry FHT (Fig. 9).
	FHTEntries int
	// Seed makes runs reproducible; 0 means seed 1.
	Seed int64
	// Refs bounds the measured trace length (required; functional
	// studies use millions, timing studies hundreds of thousands).
	Refs int
	// WarmupRefs precede measurement; -1 disables warmup, 0 defaults
	// to Refs (the paper warms with half of each trace, §5.4).
	WarmupRefs int
	// Cores overrides the 16-core pod.
	Cores int
	// ResizePeriodRefs / ResizeFractions schedule run-time partition
	// resizes for partitioned designs ("footprint+memcache:50"):
	// every ResizePeriodRefs measured references the stacked split
	// moves to the next memory fraction in ResizeFractions (cycled).
	// Ignored unless both are set and the design partitions its
	// capacity.
	ResizePeriodRefs int
	ResizeFractions  []float64
	// AdaptiveResize replaces the static schedule with the online
	// adaptive partition controller (internal/control): every epoch of
	// measured references the controller scores a telemetry window
	// (hit ratio and off-chip traffic) and hill-climbs the split, with
	// deadband and cooldown bounding migration churn. ResizePeriodRefs
	// sets the epoch length when positive (controller default
	// otherwise); ResizeFractions is ignored. Requires a partitioned
	// design; the controller's initial split matches the design spec's.
	AdaptiveResize bool
}

// ResizePolicy returns the configured resize policy — a fresh
// adaptive controller when AdaptiveResize is set, the static schedule
// when ResizePeriodRefs/ResizeFractions are, nil otherwise. The run
// helpers call it internally; CLIs driving SimState directly install
// it with SimState.SetPolicy before measuring.
func (c Config) ResizePolicy() system.ResizePolicy {
	if c.AdaptiveResize {
		return system.NewAdaptivePolicy(c.AdaptiveConfig())
	}
	if c.ResizePeriodRefs <= 0 || len(c.ResizeFractions) == 0 {
		return nil
	}
	return &system.ResizePlan{PeriodRefs: c.ResizePeriodRefs, Fractions: c.ResizeFractions}
}

// AdaptiveConfig maps the facade config onto the controller's: the
// epoch length comes from ResizePeriodRefs, and the initial fraction
// from the design spec's partition share so the controller's model of
// the split starts where the design actually is.
func (c Config) AdaptiveConfig() control.Config {
	cfg := control.Config{EpochRefs: c.ResizePeriodRefs}
	if pct, ok := system.PartitionPercent(string(c.Design)); ok {
		cfg.InitialFraction = float64(pct) / 100
	}
	return cfg
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = DefaultScale
	}
	if c.PageBytes == 0 {
		c.PageBytes = 2048
	}
	if c.FHTEntries == 0 {
		c.FHTEntries = 16 * 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cores == 0 {
		c.Cores = 16
	}
	if c.PaperCapacityMB == 0 {
		c.PaperCapacityMB = 256
	}
	switch {
	case c.WarmupRefs < 0:
		c.WarmupRefs = 0
	case c.WarmupRefs == 0:
		c.WarmupRefs = c.Refs
	}
	return c
}

// CapacityBytes returns the scaled capacity in bytes.
func (c Config) CapacityBytes() int64 {
	cc := c.withDefaults()
	return int64(float64(int64(cc.PaperCapacityMB)<<20) * cc.Scale)
}

// TagLatency returns the paper's Table 4 SRAM lookup latency, in CPU
// cycles, for a design at a paper-scale capacity. Scaled runs stand
// in for paper-sized caches, so they pay paper-sized latencies.
func TagLatency(kind DesignKind, paperMB int) int {
	return system.TagLatencyFor(string(kind), paperMB)
}

// NewDesign builds the configured cache design.
func NewDesign(c Config) (dcache.Design, error) {
	c = c.withDefaults()
	return system.BuildDesign(system.DesignSpec{
		Kind:            string(c.Design),
		PaperCapacityMB: c.PaperCapacityMB,
		Scale:           c.Scale,
		PageBytes:       c.PageBytes,
		FHTEntries:      c.FHTEntries,
	})
}

// NewTrace builds the workload's trace source at the configured
// scale.
func NewTrace(c Config) (memtrace.Source, *synth.Profile, error) {
	c = c.withDefaults()
	prof, err := synth.ByName(c.Workload)
	if err != nil {
		return nil, nil, err
	}
	prof.Cores = c.Cores
	gen, err := synth.NewGenerator(prof, c.Seed, c.Scale)
	if err != nil {
		return nil, nil, err
	}
	p := gen.Profile()
	return gen, &p, nil
}

// RunFunctional executes a functional simulation.
func RunFunctional(c Config) (system.FunctionalResult, error) {
	c = c.withDefaults()
	if c.Refs <= 0 {
		return system.FunctionalResult{}, fmt.Errorf("fpcache: Config.Refs must be positive")
	}
	src, _, err := NewTrace(c)
	if err != nil {
		return system.FunctionalResult{}, err
	}
	return RunFunctionalSource(c, src)
}

// RunFunctionalSource executes a functional simulation over an
// externally supplied record source — a recorded trace file
// (memtrace.Reader), a tee, or any other Source — instead of the
// workload generator. The Workload field only labels the run; warmup
// and measured references are consumed from src.
func RunFunctionalSource(c Config, src memtrace.Source) (system.FunctionalResult, error) {
	c = c.withDefaults()
	if c.Refs <= 0 {
		return system.FunctionalResult{}, fmt.Errorf("fpcache: Config.Refs must be positive")
	}
	d, err := NewDesign(c)
	if err != nil {
		return system.FunctionalResult{}, err
	}
	return system.RunFunctionalResized(d, src, c.WarmupRefs, c.Refs, c.ResizePolicy())
}

// RunTiming executes an event-driven timing simulation.
func RunTiming(c Config) (system.TimingResult, error) {
	c = c.withDefaults()
	if c.Refs <= 0 {
		return system.TimingResult{}, fmt.Errorf("fpcache: Config.Refs must be positive")
	}
	d, err := NewDesign(c)
	if err != nil {
		return system.TimingResult{}, err
	}
	src, prof, err := NewTrace(c)
	if err != nil {
		return system.TimingResult{}, err
	}
	return system.RunTiming(d, src, system.TimingConfig{
		Cores:      c.Cores,
		MLP:        prof.MLP,
		WarmupRefs: c.WarmupRefs,
		MaxRefs:    c.Refs,
		Resize:     c.ResizePolicy(),
	})
}
