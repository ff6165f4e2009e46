package system

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"fpcache/internal/control"
	"fpcache/internal/core"
	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
	"fpcache/internal/stats"
	"fpcache/internal/sweep"
)

// Interval-parallel simulation of one long trace.
//
// The paper's methodology never simulates a server trace end to end:
// it warms a checkpoint and measures short samples (§5.4). This file
// industrializes that idea over the repo's two PR-5 primitives — the
// chunk-indexed v2 trace format (O(1) seeks, concurrent sections) and
// byte-exact warm-state snapshots — so one long trace splits into
// chunk-aligned intervals that simulate concurrently and merge
// deterministically.
//
// Exactness model. A functional run's state after record i depends
// only on records [0, i) and the resize schedule — not on where
// measurement boundaries fall, because measuring only subtracts
// counter snapshots. So any exact state at an interval's start record,
// however obtained (a restored checkpoint, or a functional replay from
// the trace start or an earlier checkpoint), continues byte-identically
// to the serial run. That is what makes the merged result independent
// of the worker count, of which checkpoints happen to exist in the
// cache, and of scheduling: per-interval deltas are exact, and their
// deterministic in-order merge (integer counters, exact histogram
// merges) reproduces the serial run's rows byte for byte.
//
// Speedup model. Boundary states form a chain: interval i+1 starts
// where interval i ends, so a cold cache forces one serial pass (which
// stores every boundary checkpoint it crosses). Runs after the first
// restore boundaries in milliseconds and measure all intervals
// concurrently — the paper's warmed-checkpoint methodology, amortized.
// Sampled mode (SampleEvery > 1) breaks the chain instead: each
// measured interval warms with a bounded cold pre-roll, trading
// exactness for embarrassing parallelism on the first run, and reports
// the confidence interval that trade costs.

// Interval is one measured slice of a trace run.
type Interval struct {
	// Index is the interval's position in trace order.
	Index int
	// Start is the absolute record index where measurement begins.
	Start uint64
	// Refs is the number of measured records.
	Refs uint64
	// Measured is false for intervals skipped by sampled mode.
	Measured bool
}

// IntervalOptions configures an interval-parallel run over one trace.
type IntervalOptions struct {
	// Spec is the design under test.
	Spec DesignSpec
	// Workload, Seed, and Scale label checkpoint identity (Workload is
	// a free-form label for replayed traces; Seed/Scale matter only
	// when the trace was generated from them).
	Workload string
	Seed     int64
	Scale    float64
	// WarmupRefs is the unmeasured warmup prefix, in records.
	WarmupRefs int
	// MaxRefs bounds the measured region; <= 0 measures to the end.
	MaxRefs int
	// Intervals is the number of intervals to split the measured
	// region into (chunk-aligned where the trace has an index).
	Intervals int
	// Workers bounds the worker pool (< 1 selects GOMAXPROCS).
	Workers int
	// Plan schedules static partition resizes, exactly as a serial
	// run.
	Plan *ResizePlan
	// Adaptive, when non-nil, installs the adaptive partition
	// controller instead of Plan (it wins when both are set). The
	// config is a value, not a shared controller: every state the run
	// builds gets its own controller, whose decision state chains
	// through boundary checkpoints exactly like design state — a
	// shared instance would race across interval workers.
	Adaptive *control.Config
	// Cache, when non-nil, stores and restores boundary checkpoints,
	// keyed by trace content and start record. It is an accelerator:
	// results are byte-identical with or without it.
	Cache *WarmCache
	// SampleEvery k > 1 measures only every k-th interval (sampled
	// mode). Sampled runs never touch the checkpoint cache — their
	// warm state must not depend on what a previous run stored.
	SampleEvery int
	// SampleWarmup is the cold pre-roll before each sampled interval,
	// in records; <= 0 defaults to the interval's own length.
	SampleWarmup int
	// Timing, when non-nil, runs the event-driven timing simulator
	// over each interval (Cores/MLP/L2Cycles/OffChip/Stacked taken
	// from it; warmup, bounds, and resize wiring are per-interval).
	Timing *TimingConfig
	// Timeout is the per-job deadline for interval jobs; zero
	// disables it.
	Timeout time.Duration
}

// IntervalReport is the outcome of an interval-parallel run.
type IntervalReport struct {
	// Intervals is the executed plan.
	Intervals []Interval
	// Segments counts the consecutive-interval chains that executed
	// (one per available boundary checkpoint; 1 on a cold cache).
	Segments int
	// Restored counts segment heads warmed from a cached checkpoint;
	// Stored counts boundary checkpoints written back.
	Restored, Stored int
	// Functional is the merged functional result (zero in timing
	// mode). In sampled mode its counters cover only the measured
	// intervals — scale by 1/MeasuredFraction to estimate the whole
	// region.
	Functional FunctionalResult
	// Timing is the merged timing result, nil in functional mode.
	// Cycles sums per-interval windows (each interval's controllers
	// start quiescent, the paper's sampled-window convention), so it
	// is not a serial run's wall-clock cycle count; counters and
	// traffic match the serial run exactly.
	Timing *TimingResult
	// Sampled reports whether sampled mode ran, MeasuredFraction the
	// fraction of measured-region records actually simulated, and
	// HitRatioMean/HitRatioCI95 the per-interval hit-ratio estimate
	// with its 95% confidence half-width.
	Sampled          bool
	MeasuredFraction float64
	HitRatioMean     float64
	HitRatioCI95     float64
}

// ScaleFactor returns the multiplier that extrapolates sampled-mode
// counters to the whole measured region (1 for exact runs).
func (r *IntervalReport) ScaleFactor() float64 {
	if !r.Sampled || r.MeasuredFraction <= 0 {
		return 1
	}
	return 1 / r.MeasuredFraction
}

// PlanIntervals splits the measured region of a trace into k
// intervals. Boundaries snap to v2 chunk starts where the trace has an
// index — an interval decode then never pays a partial leading chunk —
// and fall back to exact equal splits for v1 traces. Degenerate
// boundaries produced by snapping collapse, so the plan may hold fewer
// than k intervals but always covers the region exactly once.
func PlanIntervals(tr *memtrace.FileReader, warmupRefs, maxRefs, k int) ([]Interval, error) {
	total := tr.Len()
	w := uint64(0)
	if warmupRefs > 0 {
		w = uint64(warmupRefs)
	}
	if w >= total {
		//fplint:ignore faulterr plan validation rejecting impossible caller options; not a quarantinable artifact fault
		return nil, fmt.Errorf("system: warmup of %d records consumes the whole %d-record trace", warmupRefs, total)
	}
	m := total - w
	if maxRefs > 0 && uint64(maxRefs) < m {
		m = uint64(maxRefs)
	}
	if k < 1 {
		k = 1
	}
	if uint64(k) > m {
		k = int(m)
	}
	_, starts, _ := tr.Chunks()
	bounds := []uint64{w}
	for j := 1; j < k; j++ {
		b := snapToChunk(starts, w+m*uint64(j)/uint64(k), w, w+m)
		if b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	bounds = append(bounds, w+m)
	ivs := make([]Interval, 0, len(bounds)-1)
	for j := 0; j+1 < len(bounds); j++ {
		ivs = append(ivs, Interval{Index: j, Start: bounds[j], Refs: bounds[j+1] - bounds[j], Measured: true})
	}
	return ivs, nil
}

// snapToChunk moves an ideal boundary to the nearest chunk start
// strictly inside (lo, hi), or keeps it when no chunk start qualifies.
func snapToChunk(starts []uint64, ideal, lo, hi uint64) uint64 {
	best, bestDist := ideal, uint64(1)<<63
	consider := func(s uint64) {
		if s <= lo || s >= hi {
			return
		}
		d := s - ideal
		if s < ideal {
			d = ideal - s
		}
		if d < bestDist {
			best, bestDist = s, d
		}
	}
	i := sort.Search(len(starts), func(i int) bool { return starts[i] >= ideal })
	if i < len(starts) {
		consider(starts[i])
	}
	if i > 0 {
		consider(starts[i-1])
	}
	if bestDist == uint64(1)<<63 {
		return ideal
	}
	return best
}

// newPolicy builds a fresh resize policy per the options: the
// adaptive controller config wins over a static plan. Each call
// returns an independent instance — interval workers must never share
// a stateful policy.
func (opt *IntervalOptions) newPolicy() ResizePolicy {
	if opt.Adaptive != nil {
		return NewAdaptivePolicy(*opt.Adaptive)
	}
	if opt.Plan.Period() > 0 {
		return opt.Plan
	}
	return nil
}

// policyLabel renders the options' policy for checkpoint keys without
// building a controller.
func (opt *IntervalOptions) policyLabel() string {
	if opt.Adaptive != nil {
		return opt.Adaptive.Label()
	}
	return policyLabel(opt.Plan)
}

// key builds the checkpoint identity for a state captured at absolute
// record `at`. The resize policy changes functional state evolution
// but has no WarmKey field of its own, so an active policy folds into
// the workload label — states under different schedules (or under the
// controller versus a schedule) must never share an entry.
func (opt *IntervalOptions) key(traceID string, at uint64) WarmKey {
	wl := opt.Workload
	if lbl := opt.policyLabel(); lbl != "" {
		wl = fmt.Sprintf("%s|%s", wl, lbl)
	}
	return WarmKey{
		Workload: wl, Seed: opt.Seed, Scale: opt.Scale, WarmupRefs: opt.WarmupRefs,
		TraceID: traceID, AtRecord: at, Spec: opt.Spec,
	}
}

// newState builds a fresh SimState for the option's design spec, with
// its own resize policy installed (before any restore — a stateful
// policy's decision state is part of the checkpoints this run chains
// through).
func (opt *IntervalOptions) newState() (*SimState, error) {
	d, err := BuildDesign(opt.Spec)
	if err != nil {
		return nil, err
	}
	s := NewSimState(d)
	s.SetPolicy(opt.newPolicy())
	return s, nil
}

// timeInterval times interval iv of section sec from s, the state at
// the interval's first record (restored exactly, or pre-rolled when
// sampling); w is the warmup boundary. The state's own policy
// instance continues the epoch schedule at the interval's measured
// position: for the adaptive controller it carries the window and
// climb registers s holds at this boundary.
func (opt *IntervalOptions) timeInterval(s *SimState, sec memtrace.Source, iv Interval, w uint64) (TimingResult, error) {
	cfg := *opt.Timing
	cfg.WarmupRefs, cfg.MaxRefs = 0, int(iv.Refs)
	cfg.Resize, cfg.ResizeStartRefs = s.Policy(), iv.Start-w
	return RunTiming(s.Design(), sec, cfg)
}

// advance replays records [from, to) through s exactly as the serial
// run would see them: records before the warmup boundary w replay
// without the policy, later ones hit policy epochs at serial
// boundaries.
func advance(s *SimState, tr *memtrace.FileReader, w uint64, from, to uint64) error {
	if from >= to {
		return nil
	}
	sec, err := tr.OpenSection(from, to-from)
	if err != nil {
		return err
	}
	if from < w {
		n := to
		if n > w {
			n = w
		}
		if err := s.Warm(sec, int(n-from)); err != nil {
			return err
		}
		from = n
	}
	if from >= to {
		return nil
	}
	_, err = s.MeasureFrom(sec, int(to-from), from-w)
	return err
}

// segment is a chain of consecutive intervals sharing one warm state.
type segment struct {
	first, last int
	// state is the warm state at the first interval's start, non-nil
	// exactly when a checkpoint restored; otherwise the chain replays
	// from the trace start.
	state *SimState
}

// planSegments probes the checkpoint cache at every interval start and
// cuts a new chain wherever a checkpoint restores. Probing happens
// up front and serially, so the segmentation — unlike worker timing —
// is a pure function of the cache's contents; results do not depend on
// it either way (see the exactness model above).
func planSegments(opt *IntervalOptions, traceID string, ivs []Interval) ([]segment, int, error) {
	probe := func(at uint64) *SimState {
		if opt.Cache == nil {
			return nil
		}
		s, err := opt.newState()
		if err != nil {
			return nil
		}
		if hit, _, err := opt.Cache.Load(opt.key(traceID, at), s); err == nil && hit {
			return s
		}
		return nil // miss, quarantine, or open failure all fall back to replay
	}
	var segs []segment
	restored := 0
	cur := segment{first: 0, state: probe(ivs[0].Start)}
	if cur.state != nil {
		restored++
	}
	for i := 1; i < len(ivs); i++ {
		if s := probe(ivs[i].Start); s != nil {
			cur.last = i - 1
			segs = append(segs, cur)
			cur = segment{first: i, state: s}
			restored++
		}
	}
	cur.last = len(ivs) - 1
	segs = append(segs, cur)
	return segs, restored, nil
}

// RunIntervals executes an interval-parallel run over one trace and
// merges the per-interval results deterministically. The trace's
// underlying reader must support io.ReaderAt (an os.File or
// bytes.Reader does): every interval reads through its own section.
func RunIntervals(tr *memtrace.FileReader, opt IntervalOptions) (*IntervalReport, error) {
	ivs, err := PlanIntervals(tr, opt.WarmupRefs, opt.MaxRefs, opt.Intervals)
	if err != nil {
		return nil, err
	}
	traceID, err := tr.TraceID()
	if err != nil {
		return nil, err
	}
	if opt.SampleEvery > 1 {
		return runSampled(tr, &opt, traceID, ivs)
	}
	return runExact(tr, &opt, traceID, ivs)
}

// runExact runs every interval, chaining states within segments, and
// merges deltas that reproduce the serial run byte for byte.
func runExact(tr *memtrace.FileReader, opt *IntervalOptions, traceID string, ivs []Interval) (*IntervalReport, error) {
	w := ivs[0].Start
	segs, restored, err := planSegments(opt, traceID, ivs)
	if err != nil {
		return nil, err
	}
	rep := &IntervalReport{Intervals: ivs, Segments: len(segs), Restored: restored}

	// Per-segment chains: replay (or restore) to the head, then walk
	// the chain, storing each boundary checkpoint the probe missed and
	// capturing what each mode needs — functional deltas directly, or
	// boundary snapshots for the timing pass below.
	type chainOut struct {
		funcs  []FunctionalResult
		snaps  [][]byte // boundary snapshots (timing mode)
		stored int
	}
	timing := opt.Timing != nil
	outs, failed := sweep.Map(opt.Workers, len(segs), sweep.Policy{Timeout: opt.Timeout}, func(si int) (chainOut, error) {
		seg := segs[si]
		s := seg.state
		if s == nil {
			var err error
			if s, err = opt.newState(); err != nil {
				return chainOut{}, err
			}
			if err := advance(s, tr, w, 0, ivs[seg.first].Start); err != nil {
				return chainOut{}, err
			}
		}
		var out chainOut
		for i := seg.first; i <= seg.last; i++ {
			iv := ivs[i]
			if opt.Cache != nil && !(i == seg.first && seg.state != nil) {
				if err := opt.Cache.Store(opt.key(traceID, iv.Start), s); err == nil {
					out.stored++
				}
			}
			if timing {
				var buf bytes.Buffer
				if err := s.Snapshot(&buf, opt.key(traceID, iv.Start).Meta()); err != nil {
					return chainOut{}, err
				}
				out.snaps = append(out.snaps, buf.Bytes())
				if err := advance(s, tr, w, iv.Start, iv.Start+iv.Refs); err != nil {
					return chainOut{}, err
				}
				continue
			}
			sec, err := tr.OpenSection(iv.Start, iv.Refs)
			if err != nil {
				return chainOut{}, err
			}
			res, err := s.MeasureFrom(sec, int(iv.Refs), iv.Start-w)
			if err != nil {
				return chainOut{}, err
			}
			out.funcs = append(out.funcs, res)
		}
		return out, nil
	})
	if err := firstFailure(failed); err != nil {
		return nil, err
	}
	for _, o := range outs {
		rep.Stored += o.stored
	}

	if !timing {
		var parts []FunctionalResult
		for _, o := range outs {
			parts = append(parts, o.funcs...)
		}
		rep.Functional = MergeFunctional(parts)
		rep.MeasuredFraction = 1
		return rep, nil
	}

	// Timing mode: the chains above were a functional pre-pass (cheap
	// next to event-driven simulation) that produced one exact boundary
	// snapshot per interval; now every interval times concurrently from
	// its snapshot. Timing runs never feed checkpoints back — their
	// functional trackers go stale once the engine takes over.
	snaps := make([][]byte, 0, len(ivs))
	for _, o := range outs {
		snaps = append(snaps, o.snaps...)
	}
	tms, failed := sweep.Map(opt.Workers, len(ivs), sweep.Policy{Timeout: opt.Timeout}, func(i int) (TimingResult, error) {
		iv := ivs[i]
		s, err := opt.newState()
		if err != nil {
			return TimingResult{}, err
		}
		if err := s.Restore(bytes.NewReader(snaps[i]), opt.key(traceID, iv.Start).Meta()); err != nil {
			return TimingResult{}, err
		}
		sec, err := tr.OpenSection(iv.Start, iv.Refs)
		if err != nil {
			return TimingResult{}, err
		}
		return opt.timeInterval(s, sec, iv, w)
	})
	if err := firstFailure(failed); err != nil {
		return nil, err
	}
	merged, err := MergeTiming(tms)
	if err != nil {
		return nil, err
	}
	rep.Timing = &merged
	rep.MeasuredFraction = 1
	return rep, nil
}

// runSampled measures every k-th interval after a bounded cold
// pre-roll. Every measured interval is independent — no chains, no
// checkpoint cache — so the first run already parallelizes fully; the
// price is approximation, quantified by the reported 95% confidence
// interval over per-interval hit ratios.
func runSampled(tr *memtrace.FileReader, opt *IntervalOptions, traceID string, ivs []Interval) (*IntervalReport, error) {
	w := ivs[0].Start
	var measured []int
	for i := range ivs {
		if i%opt.SampleEvery == 0 {
			measured = append(measured, i)
		} else {
			ivs[i].Measured = false
		}
	}
	rep := &IntervalReport{Intervals: ivs, Segments: len(measured), Sampled: true}

	type sampleOut struct {
		fn FunctionalResult
		tm TimingResult
	}
	timing := opt.Timing != nil
	outs, failed := sweep.Map(opt.Workers, len(measured), sweep.Policy{Timeout: opt.Timeout}, func(mi int) (sampleOut, error) {
		iv := ivs[measured[mi]]
		s, err := opt.newState()
		if err != nil {
			return sampleOut{}, err
		}
		// Fixed cold pre-roll: the warm window is a pure function of
		// the plan, never of what a cache happens to hold, so sampled
		// results are reproducible run to run.
		warm := uint64(opt.SampleWarmup)
		if opt.SampleWarmup <= 0 {
			warm = iv.Refs
		}
		pre := iv.Start
		if warm < pre {
			pre = warm
		}
		presec, err := tr.OpenSection(iv.Start-pre, pre)
		if err != nil {
			return sampleOut{}, err
		}
		if err := s.Warm(presec, int(pre)); err != nil {
			return sampleOut{}, err
		}
		sec, err := tr.OpenSection(iv.Start, iv.Refs)
		if err != nil {
			return sampleOut{}, err
		}
		if timing {
			tm, err := opt.timeInterval(s, sec, iv, w)
			return sampleOut{tm: tm}, err
		}
		fn, err := s.MeasureFrom(sec, int(iv.Refs), iv.Start-w)
		return sampleOut{fn: fn}, err
	})
	if err := firstFailure(failed); err != nil {
		return nil, err
	}

	var total, seen uint64
	for _, iv := range ivs {
		total += iv.Refs
	}
	var hit stats.Mean
	if timing {
		tms := make([]TimingResult, len(outs))
		for i, o := range outs {
			tms[i] = o.tm
			seen += o.tm.Refs
			hit.Add(o.tm.Counters.HitRatio())
		}
		merged, err := MergeTiming(tms)
		if err != nil {
			return nil, err
		}
		rep.Timing = &merged
	} else {
		parts := make([]FunctionalResult, len(outs))
		for i, o := range outs {
			parts[i] = o.fn
			seen += o.fn.Refs
			hit.Add(o.fn.Counters.HitRatio())
		}
		rep.Functional = MergeFunctional(parts)
	}
	if total > 0 {
		rep.MeasuredFraction = float64(seen) / float64(total)
	}
	rep.HitRatioMean = hit.Value()
	rep.HitRatioCI95 = hit.CI95()
	return rep, nil
}

// firstFailure is the lowest-indexed failed interval job, nil if every
// job succeeded — an interval run cannot tolerate holes: a missing
// interval would silently skew the merged counters.
func firstFailure(failed []sweep.PointError) error {
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("system: interval run: %w", failed[0])
}

// MergeFunctional folds per-interval functional deltas, in trace
// order, into the result one uninterrupted measurement would report.
// Counters, instructions, traffic, and predictor statistics are
// monotonic integers, so the merge is exact; partition current-split
// fields carry from the last interval (they report state, not deltas).
func MergeFunctional(parts []FunctionalResult) FunctionalResult {
	var m FunctionalResult
	for i, p := range parts {
		if i == 0 {
			m.Design = p.Design
		}
		m.Refs += p.Refs
		m.Instructions += p.Instructions
		m.Counters = m.Counters.Add(p.Counters)
		m.OffChip.Add(p.OffChip)
		m.Stacked.Add(p.Stacked)
		if p.Footprint != nil {
			if m.Footprint == nil {
				m.Footprint = new(core.Stats)
			}
			*m.Footprint = m.Footprint.Add(*p.Footprint)
		}
		if p.Partition != nil {
			if m.Partition == nil {
				m.Partition = new(dcache.PartitionStats)
			}
			*m.Partition = m.Partition.Add(*p.Partition)
		}
	}
	return m
}

// MergeTiming folds per-interval timing results, in trace order.
// Functional counters and traffic merge exactly (they match a serial
// functional run by the demux's trace-order contract); Cycles and
// StallCycles sum per-interval windows; QueueHighWater takes the
// maximum. Latency percentiles recompute from the exactly merged
// histogram; AvgReadLatency reassembles the read-weighted mean from
// per-interval means, which is deterministic at any worker count
// (per-interval results and merge order never change) though its last
// float bits may differ from a single serial accumulation.
func MergeTiming(parts []TimingResult) (TimingResult, error) {
	m := TimingResult{ReadLatency: stats.NewHistogram(stats.LatencyBounds()...)}
	var latWeighted float64
	for i, p := range parts {
		if i == 0 {
			m.Design = p.Design
		}
		m.Refs += p.Refs
		m.Instructions += p.Instructions
		m.Cycles += p.Cycles
		m.StallCycles += p.StallCycles
		if p.QueueHighWater > m.QueueHighWater {
			m.QueueHighWater = p.QueueHighWater
		}
		m.Counters = m.Counters.Add(p.Counters)
		m.OffChip.Add(p.OffChip)
		m.Stacked.Add(p.Stacked)
		if p.ReadLatency != nil {
			if err := m.ReadLatency.Merge(p.ReadLatency); err != nil {
				return m, err
			}
			latWeighted += p.AvgReadLatency * float64(p.ReadLatency.Total())
		}
		if p.Partition != nil {
			if m.Partition == nil {
				m.Partition = new(dcache.PartitionStats)
			}
			*m.Partition = m.Partition.Add(*p.Partition)
		}
	}
	if n := m.ReadLatency.Total(); n > 0 {
		m.AvgReadLatency = latWeighted / float64(n)
		m.ReadLatencyP50 = m.ReadLatency.Percentile(0.50)
		m.ReadLatencyP90 = m.ReadLatency.Percentile(0.90)
		m.ReadLatencyP99 = m.ReadLatency.Percentile(0.99)
	}
	return m, nil
}
