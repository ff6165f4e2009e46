package system

// ResizePolicy generalizes the partition resize schedule: the static
// ResizePlan and the adaptive controller (internal/control) both
// implement it, and both runners drive it identically — at every
// epoch boundary of *measured* references, in trace order, the policy
// sees the design's cumulative telemetry and answers with the split
// to run at. Keeping the boundary arithmetic and the telemetry
// trace-ordered is what lets an adaptive timing run stay
// byte-identical to its functional counterpart.

import (
	"fpcache/internal/control"
	"fpcache/internal/dcache"
)

// Telemetry is the trace-ordered, cumulative view of a run a
// ResizePolicy decides from. Every field is a running total over the
// design's lifetime (warmup included): policies difference
// consecutive readings themselves.
type Telemetry struct {
	// Refs is the measured-reference position of the reading (warmup
	// excluded).
	Refs uint64
	// Counters is the design's cumulative counter block.
	Counters dcache.Counters
	// Partition is the cumulative partition statistics block (zero
	// for designs without one).
	Partition dcache.PartitionStats
}

// ResizePolicy decides run-time partition splits. Period is the
// decision cadence in measured references (0 disables the policy
// entirely); Decide is called at every period boundary with the epoch
// index (0 for the first boundary) and the cumulative telemetry, and
// returns the memory fraction to apply plus whether to apply it —
// a false fire leaves the split alone, which is how a controller
// holds or cools down without churning no-op resizes.
//
// Implementations must be deterministic pure functions of the epoch
// sequence and telemetry they observe: no clocks, no randomness.
type ResizePolicy interface {
	Period() int
	Decide(epoch int, t Telemetry) (frac float64, fire bool)
}

// Period implements ResizePolicy. It is nil-receiver-safe so a
// typed-nil *ResizePlan threaded through the ResizePolicy interface
// (the facade's "no resizes" value) reads as disabled.
func (p *ResizePlan) Period() int {
	if p == nil || p.PeriodRefs <= 0 || len(p.Fractions) == 0 {
		return 0
	}
	return p.PeriodRefs
}

// Decide implements ResizePolicy: the static schedule ignores
// telemetry and always fires the next fraction in the cycle, which
// reproduces the pre-policy ResizePlan behavior byte for byte.
func (p *ResizePlan) Decide(epoch int, _ Telemetry) (float64, bool) {
	return p.Fractions[epoch%len(p.Fractions)], true
}

// policyPeriod returns the decision cadence of a policy, 0 for nil or
// disabled policies.
func policyPeriod(pol ResizePolicy) int {
	if pol == nil {
		return 0
	}
	return pol.Period()
}

// telemetryOf assembles the cumulative telemetry reading at measured
// reference refs. part is the design's partition-statistics accessor
// (nil for unpartitioned designs), hoisted by the caller so boundary
// readings stay allocation-free.
func telemetryOf(design dcache.Design, part func() dcache.PartitionStats, refs uint64) Telemetry {
	t := Telemetry{Refs: refs, Counters: design.Counters()}
	if part != nil {
		t.Partition = part()
	}
	return t
}

// AdaptivePolicy adapts a control.Controller to the ResizePolicy
// interface: every epoch it converts the runner's cumulative
// telemetry into a control.Sample — the off-chip traffic proxy is 64
// bytes per miss and per dirty eviction, cumulative by construction —
// and lets the controller's hill climb decide.
type AdaptivePolicy struct {
	ctl *control.Controller
}

// NewAdaptivePolicy builds an adaptive policy from a controller
// config (zero fields take the controller's defaults).
func NewAdaptivePolicy(cfg control.Config) *AdaptivePolicy {
	return &AdaptivePolicy{ctl: control.NewController(cfg)}
}

// Controller exposes the wrapped controller (tests, diagnostics).
func (a *AdaptivePolicy) Controller() *control.Controller { return a.ctl }

// Period implements ResizePolicy.
func (a *AdaptivePolicy) Period() int { return a.ctl.Config().EpochRefs }

// Decide implements ResizePolicy.
func (a *AdaptivePolicy) Decide(_ int, t Telemetry) (float64, bool) {
	return a.ctl.Observe(control.Sample{
		Refs:         t.Refs,
		Accesses:     t.Counters.Accesses(),
		Hits:         t.Counters.Hits,
		MemHits:      t.Partition.MemHits,
		OffChipBytes: 64 * (t.Counters.Misses + t.Counters.DirtyEvicts),
	})
}
