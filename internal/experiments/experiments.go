// Package experiments regenerates every table and figure of the
// paper's evaluation (§6). Each driver returns typed rows and can
// render itself; cmd/fpbench and the root bench harness are thin
// wrappers around this package.
//
// Every driver decomposes its grid into independent simulation points
// and submits them to the internal/sweep executor, so multi-core
// machines sweep the (workload x design x capacity) space in
// parallel. Results are gathered in declaration order, which makes
// output byte-identical between serial and parallel runs (see the
// determinism regression test in parallel_test.go).
//
// The per-experiment index lives in DESIGN.md §4. Experiments run at
// a capacity scale factor (DESIGN.md §2) but are labelled with
// paper-equivalent capacities.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"fpcache/internal/dcache"
	"fpcache/internal/fault"
	"fpcache/internal/memtrace"
	"fpcache/internal/sweep"
	"fpcache/internal/synth"
	"fpcache/internal/system"
)

// Options control experiment size; the zero value is filled with
// defaults suitable for the full harness.
type Options struct {
	// Scale is the capacity scale factor (default 1/16).
	Scale float64
	// Refs is the measured reference count per configuration.
	Refs int
	// WarmupRefs precede measurement (default: same as Refs).
	WarmupRefs int
	// TimingRefs is the measured reference count for event-driven
	// runs (more expensive; default Refs/4).
	TimingRefs int
	// Seed drives all randomness.
	Seed int64
	// Workloads defaults to the full suite.
	Workloads []string
	// Capacities are paper-scale MB points (default 64-512).
	Capacities []int
	// Workers bounds the simulation-point fan-out: 0 (the zero value)
	// and 1 run serially, higher values run that many points
	// concurrently, and negative values use GOMAXPROCS. Output is
	// byte-identical at every setting.
	Workers int
	// StateCache names a directory of content-keyed warm-state
	// snapshots (fpbench -state-cache). When set, every point built
	// through the spec-driven helpers warms its design once, snapshots
	// the warm state, and later runs of the same (workload, spec,
	// seed, scale, warmup) point restore it instead of re-paying the
	// warmup references. Results are byte-identical either way
	// (snapshot restore is exact; the snapshot-parity suite in
	// internal/system pins it), including when a cached entry turns
	// out corrupt: the entry is quarantined and the point falls back
	// to a cold warmup. Empty disables caching.
	StateCache string
	// StateCacheMaxBytes caps the state cache's total size (fpbench
	// -state-cache-max); oldest entries are evicted first. 0 is
	// unlimited.
	StateCacheMaxBytes int64

	// Every sweep isolates a panicking point (internal/sweep), and
	// every point that fails lands in the run's FailureReport.

	// PointTimeout is the per-point deadline (fpbench/fpsim
	// -point-timeout); 0 disables it.
	PointTimeout time.Duration
	// Tolerate keeps an experiment's surviving rows when points fail:
	// failed points degrade to zero-valued cells recorded in the
	// FailureReport instead of failing the experiment with the
	// lowest-indexed failure.
	Tolerate bool

	// rec collects the run's FailureReport when the caller asked for
	// one (RowsWithReport); nil drops the records.
	rec *failureRecorder
	// traces shares each workload's templates and recorded stream
	// among the points of one experiment call; withDefaults gives every
	// call that arrives without one a fresh cache.
	traces *traceCache
	// pointHook, when set, runs before each point's job with the
	// point's index; an error or panic from it fails that point. Only
	// this package's tests set it, to drive the failure handling above
	// through real sweeps.
	pointHook func(point int) error
}

// withDefaults is WithDefaults plus the per-call trace cache. Every
// experiment entry point starts with it, so each call derives each
// workload's templates once, nested calls share them, and each sweep
// generates each workload's records once.
func (o Options) withDefaults() Options {
	o = o.WithDefaults()
	if o.traces == nil {
		o.traces = &traceCache{}
	}
	return o
}

// WithDefaults returns the options as every driver will actually run
// them, with zero fields replaced by their defaults — what a
// machine-readable report should record as the run configuration.
func (o Options) WithDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0 / 16
	}
	if o.Refs == 0 {
		o.Refs = 1_000_000
	}
	if o.WarmupRefs == 0 {
		o.WarmupRefs = o.Refs
	}
	if o.TimingRefs == 0 {
		o.TimingRefs = o.Refs / 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Workloads) == 0 {
		o.Workloads = synth.Names()
	}
	if len(o.Capacities) == 0 {
		o.Capacities = []int{64, 128, 256, 512}
	}
	return o
}

// workerCount resolves the Workers option to a concrete pool size.
func (o Options) workerCount() int {
	if o.Workers == 0 {
		return 1
	}
	return sweep.Workers(o.Workers)
}

// Failure dispositions: what became of a faulted point.
const (
	// DispositionDegraded: the point failed; under Options.Tolerate
	// its row cells are zero-valued, otherwise the experiment fails.
	DispositionDegraded = "degraded"
	// DispositionQuarantined: a corrupt warm-state snapshot was pulled
	// out of service; the point fell back to a cold warmup and its row
	// is byte-identical to a never-cached run.
	DispositionQuarantined = "quarantined"
)

// Failure is one FailureReport entry: a point that panicked, timed
// out, errored, or had its cache entry quarantined.
type Failure struct {
	// Point identifies the faulted point (sweep/point index for sweep
	// faults, workload/spec for cache faults).
	Point string `json:"point"`
	// Class is the fault taxonomy class.
	Class fault.Class `json:"class"`
	// Disposition is one of the Disposition* constants.
	Disposition string `json:"disposition"`
	// Error is the point's error ("" for a quarantine, whose point
	// recovered).
	Error string `json:"error,omitempty"`
}

// FailureReport summarizes every fault one experiment absorbed —
// empty means a clean run. Entries are sorted for deterministic output
// at any worker count.
type FailureReport struct {
	Experiment string    `json:"experiment,omitempty"`
	Failures   []Failure `json:"failures"`
}

// failureRecorder is the mutex-guarded collector behind a run's
// FailureReport; a nil recorder drops records.
type failureRecorder struct {
	mu       sync.Mutex
	sweeps   int
	failures []Failure
}

func (r *failureRecorder) add(f Failure) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.failures = append(r.failures, f)
	r.mu.Unlock()
}

// nextSweep numbers pmap fan-outs for point keys.
func (r *failureRecorder) nextSweep() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.sweeps
	r.sweeps++
	return n
}

// report finalizes the collected failures. Sorting makes the report
// deterministic: in-sweep entries arrive in index order, but
// quarantine events from concurrent points interleave arbitrarily.
func (r *failureRecorder) report(experiment string) *FailureReport {
	rep := &FailureReport{Experiment: experiment}
	if r == nil {
		return rep
	}
	r.mu.Lock()
	rep.Failures = append(rep.Failures, r.failures...)
	r.mu.Unlock()
	sort.SliceStable(rep.Failures, func(i, j int) bool {
		a, b := rep.Failures[i], rep.Failures[j]
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		if a.Disposition != b.Disposition {
			return a.Disposition < b.Disposition
		}
		return a.Class < b.Class
	})
	return rep
}

// pmap fans n independent simulation points out over the options'
// worker pool and gathers the results in point order. Every point runs
// isolated and deadline-bounded (sweep.Map), and each failed point
// lands in the failure recorder. Without Options.Tolerate the
// lowest-indexed failure fails the experiment. The results of
// successful points are byte-identical at any worker count.
//
// workload names the workload whose stream point i reads (nil when no
// point reads one). Points take their workload's shared recording,
// which is released once the workload's last point settles, whether it
// succeeded, failed, panicked or timed out. Callers number points
// workload-major, all of a workload's points in one run, so the pool
// holds at most one recording per worker.
func pmap[T any](o Options, n int, workload func(i int) string, job func(i int) (T, error)) ([]T, error) {
	// Experiments launch sweeps sequentially, so the recorder's
	// ordinals are deterministic.
	seq := o.rec.nextSweep()
	pol := sweep.Policy{Timeout: o.PointTimeout}
	if workload != nil {
		for i := 0; i < n; i++ {
			o.traces.register(workload(i))
		}
		pol.Settled = func(i int) { o.traces.settle(workload(i)) }
	}
	out, failed := sweep.Map(o.workerCount(), n, pol, func(i int) (T, error) {
		if o.pointHook != nil {
			if err := o.pointHook(i); err != nil {
				var zero T
				return zero, err
			}
		}
		return job(i)
	})
	for _, r := range failed {
		o.rec.add(Failure{
			Point:       fmt.Sprintf("sweep%d/point%d", seq, r.Index),
			Class:       fault.ClassOf(r.Err),
			Disposition: DispositionDegraded,
			Error:       r.Err.Error(),
		})
	}
	if len(failed) > 0 && !o.Tolerate {
		return nil, failed[0]
	}
	return out, nil
}

// byWorkload maps point i of a workload-major sweep with per points per
// workload to its workload.
func byWorkload(workloads []string, per int) func(i int) string {
	return func(i int) string { return workloads[i/per] }
}

// gridPoint is one (workload, capacity) cell of an experiment grid.
type gridPoint struct {
	workload   string
	capacityMB int
}

// grid returns the workload x capacity cross product in declaration
// order (workloads outer, capacities inner — the paper's row order).
func (o Options) grid() []gridPoint {
	pts := make([]gridPoint, 0, len(o.Workloads)*len(o.Capacities))
	for _, wl := range o.Workloads {
		for _, mb := range o.Capacities {
			pts = append(pts, gridPoint{wl, mb})
		}
	}
	return pts
}

// traceCache holds, for the points of one experiment call, each
// workload's footprint templates and, while a sweep still has points
// to run on the workload, its recording (synth.Recording), all at that
// call's seed and scale. The first
// point of a workload records its stream; every later point, on any
// worker, replays it, so one generator produces every record and
// sharing changes none. pmap registers a sweep's points up front and
// releases a workload's recording when its last point settles, so
// with points dispatched workload-major at most one recording per
// worker is held. Release drops only the cache's reference: a reader
// still running, such as a timed-out point, keeps reading its records.
type traceCache struct {
	mu      sync.Mutex
	entries map[string]*traceEntry
	// track, when set, sees every recording the cache starts holding
	// (+1) and lets go of (-1). Only this package's tests set it.
	track func(workload string, delta int)
}

// traceEntry is one workload's slot. pending counts the registered
// sweep points that have not settled; rec is held only while it is
// positive.
type traceEntry struct {
	mu      sync.Mutex
	tmpl    *synth.Templates
	rec     *synth.Recording
	pending int
}

// entry returns the workload's slot, creating it empty.
func (c *traceCache) entry(workload string) *traceEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = map[string]*traceEntry{}
	}
	e := c.entries[workload]
	if e == nil {
		e = &traceEntry{}
		c.entries[workload] = e
	}
	return e
}

// register adds a pending point to the workload's slot.
func (c *traceCache) register(workload string) {
	e := c.entry(workload)
	e.mu.Lock()
	e.pending++
	e.mu.Unlock()
}

// settle retires one registered point of the workload's slot and
// releases the recording with the last one.
func (c *traceCache) settle(workload string) {
	e := c.entry(workload)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pending--
	if e.pending == 0 && e.rec != nil {
		e.rec = nil
		if c.track != nil {
			c.track(workload, -1)
		}
	}
}

// replay returns a reader at the start of the workload's stream and
// the generator's scaled profile. A reader no other point will share with
// (outside a sweep, or the workload's one point left to settle when
// nothing is recorded yet) reads a generator of its own instead, which
// emits the same records.
func (c *traceCache) replay(workload string, seed int64, scale float64) (memtrace.Source, synth.Profile, error) {
	e := c.entry(workload)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tmpl == nil {
		prof, err := synth.ByName(workload)
		if err != nil {
			return nil, synth.Profile{}, err
		}
		if e.tmpl, err = synth.NewTemplates(prof, seed); err != nil {
			return nil, synth.Profile{}, err
		}
	}
	if e.rec == nil {
		if e.pending <= 1 {
			g, err := e.tmpl.NewGenerator(scale)
			if err != nil {
				return nil, synth.Profile{}, err
			}
			return g, g.Profile(), nil
		}
		rec, err := e.tmpl.NewRecording(scale)
		if err != nil {
			return nil, synth.Profile{}, err
		}
		e.rec = rec
		if c.track != nil {
			c.track(workload, +1)
		}
	}
	return e.rec.Replay(), e.rec.Profile(), nil
}

// trace returns a reader at the start of a workload's stream at the
// options' seed and scale.
func (o Options) trace(workload string) (memtrace.Source, synth.Profile, error) {
	return o.traces.replay(workload, o.Seed, o.Scale)
}

// runFunctional is the common functional-mode step.
func (o Options) runFunctional(design dcache.Design, workload string) (system.FunctionalResult, error) {
	src, _, err := o.trace(workload)
	if err != nil {
		return system.FunctionalResult{}, err
	}
	return system.RunFunctional(design, src, o.WarmupRefs, o.Refs)
}

// runTiming is the common timing-mode step.
func (o Options) runTiming(design dcache.Design, workload string) (system.TimingResult, error) {
	return o.runTimingResized(design, workload, nil)
}

// runTimingResized is runTiming with a partition resize policy —
// static schedule (*system.ResizePlan) or adaptive controller.
func (o Options) runTimingResized(design dcache.Design, workload string, pol system.ResizePolicy) (system.TimingResult, error) {
	src, prof, err := o.trace(workload)
	if err != nil {
		return system.TimingResult{}, err
	}
	return system.RunTiming(design, src, system.TimingConfig{
		Cores:      prof.Cores,
		MLP:        prof.MLP,
		WarmupRefs: o.WarmupRefs,
		MaxRefs:    o.TimingRefs,
		Resize:     pol,
	})
}

// buildFunctional constructs a design and runs one functional point —
// the body of most sweep jobs. With a state cache configured, the
// design's warm state is restored (or warmed once and stored) instead
// of re-simulating the warmup prefix.
func (o Options) buildFunctional(spec system.DesignSpec, workload string) (system.FunctionalResult, error) {
	return o.buildFunctionalResized(spec, workload, nil)
}

// buildFunctionalResized is buildFunctional with a partition resize
// policy. Warm-state snapshots are taken at the warmup boundary, where
// a stateful policy (the adaptive controller) is still unprimed, so
// the cache path installs the policy on the restored state and the
// measured run is byte-identical to an uninterrupted resized run.
func (o Options) buildFunctionalResized(spec system.DesignSpec, workload string, pol system.ResizePolicy) (system.FunctionalResult, error) {
	if o.StateCache == "" || o.WarmupRefs <= 0 {
		design, err := system.BuildDesign(spec)
		if err != nil {
			return system.FunctionalResult{}, err
		}
		src, _, err := o.trace(workload)
		if err != nil {
			return system.FunctionalResult{}, err
		}
		return system.RunFunctionalResized(design, src, o.WarmupRefs, o.Refs, pol)
	}
	state, src, _, err := o.warmState(spec, workload)
	if err != nil {
		return system.FunctionalResult{}, err
	}
	state.SetPolicy(pol)
	return state.Measure(src, o.Refs)
}

// buildTiming constructs a design and runs one timing point.
func (o Options) buildTiming(spec system.DesignSpec, workload string) (system.TimingResult, error) {
	return o.buildTimingResized(spec, workload, nil)
}

// buildTimingResized constructs a design and runs one timing point
// under a partition resize schedule. Timing runs share the functional
// warm-state cache: the design state after warmup is identical in both
// modes (RunTiming's warmup is the same Access sequence), so one
// snapshot per point serves every experiment that sweeps it.
func (o Options) buildTimingResized(spec system.DesignSpec, workload string, pol system.ResizePolicy) (system.TimingResult, error) {
	if o.StateCache == "" || o.WarmupRefs <= 0 {
		design, err := system.BuildDesign(spec)
		if err != nil {
			return system.TimingResult{}, err
		}
		return o.runTimingResized(design, workload, pol)
	}
	state, src, prof, err := o.warmState(spec, workload)
	if err != nil {
		return system.TimingResult{}, err
	}
	return system.RunTiming(state.Design(), src, system.TimingConfig{
		Cores:   prof.Cores,
		MLP:     prof.MLP,
		MaxRefs: o.TimingRefs,
		Resize:  pol,
	})
}

// warmCache opens the configured state cache with the options' cap.
func (o Options) warmCache() (*system.WarmCache, error) {
	cache, err := system.NewWarmCache(o.StateCache)
	if err != nil {
		return nil, err
	}
	cache.SetMaxBytes(o.StateCacheMaxBytes)
	return cache, nil
}

// warmState builds the point's warm simulation state through the
// state cache (system.WarmCache.Warm), returning the trace source
// positioned at the first measured reference. A quarantined cache
// entry is recorded in the failure report; the cache has already
// rebuilt the state and warmed it cold, so the point's rows are
// byte-identical to a never-cached run.
func (o Options) warmState(spec system.DesignSpec, workload string) (*system.SimState, memtrace.Source, synth.Profile, error) {
	src, prof, err := o.trace(workload)
	if err != nil {
		return nil, nil, synth.Profile{}, err
	}
	cache, err := o.warmCache()
	if err != nil {
		return nil, nil, synth.Profile{}, err
	}
	state, quarantined, err := cache.Warm(system.WarmKey{
		Workload:   workload,
		Seed:       o.Seed,
		Scale:      o.Scale,
		WarmupRefs: o.WarmupRefs,
		Spec:       spec,
	}, src)
	if quarantined != nil {
		o.recordQuarantine(workload, spec, *quarantined)
	}
	if err != nil {
		return nil, nil, synth.Profile{}, err
	}
	return state, src, prof, nil
}

// recordQuarantine adds a quarantined cache entry of a workload's point
// to the failure report.
func (o Options) recordQuarantine(workload string, spec system.DesignSpec, q system.QuarantineEvent) {
	class := fault.ClassOf(q.Err)
	if class == fault.ClassUnknown {
		class = fault.ClassCorruptSnapshot
	}
	// The content-hash prefix disambiguates points that share a
	// (workload, kind, capacity) label but differ in other spec fields,
	// keeping the sorted report deterministic.
	o.rec.add(Failure{
		Point:       fmt.Sprintf("%s/%s/%dMB/%.12s", workload, spec.Kind, spec.PaperCapacityMB, q.Key),
		Class:       class,
		Disposition: DispositionQuarantined,
		Error:       q.Err.Error(),
	})
}

// Runner is the common shape of every experiment driver.
type Runner func(o Options, w io.Writer) error

// RowsFunc computes an experiment's typed rows without rendering —
// the machine-readable face of a driver (fpbench -json).
type RowsFunc func(o Options) (any, error)

// experiment pairs a driver's renderer with its rows function.
type experiment struct {
	render Runner
	rows   RowsFunc
}

// rowsOf adapts a typed rows function to the RowsFunc shape.
func rowsOf[T any](fn func(Options) ([]T, error)) RowsFunc {
	return func(o Options) (any, error) { return fn(o) }
}

// registry maps experiment identifiers to drivers.
var registry = map[string]experiment{
	"figure1":     {Figure1, rowsOf(Figure1Rows)},
	"figure4":     {Figure4, rowsOf(Figure4Rows)},
	"figure5":     {Figure5, rowsOf(Figure5Rows)},
	"figure6":     {Figure6, rowsOf(Figure6Rows)},
	"figure7":     {Figure7, rowsOf(Figure7Rows)},
	"figure8":     {Figure8, rowsOf(Figure8Rows)},
	"figure9":     {Figure9, rowsOf(Figure9Rows)},
	"figure10":    {Figure10, rowsOf(Figure10Rows)},
	"figure11":    {Figure11, rowsOf(Figure11Rows)},
	"figure12":    {Figure12, rowsOf(Figure12Rows)},
	"table4":      {Table4, rowsOf(Table4Rows)},
	"ablation":    {Ablations, func(o Options) (any, error) { return AblationRows(o) }},
	"designspace": {DesignSpace, rowsOf(DesignSpaceRows)},
	"latency":     {Latency, rowsOf(LatencyRows)},
	"partition":   {Partition, rowsOf(PartitionRows)},
	"adaptive":    {Adaptive, rowsOf(AdaptiveRows)},
}

// order lists experiments in paper order for "run everything"; the
// design-space cross-product, the latency-distribution study, and the
// partition and adaptive studies (not in the paper) run last.
var order = []string{
	"figure1", "table4", "figure4", "figure5", "figure6", "figure7",
	"figure8", "figure9", "figure10", "figure11", "figure12", "ablation",
	"designspace", "latency", "partition", "adaptive",
}

// Names returns the experiment identifiers in paper order.
func Names() []string { return append([]string(nil), order...) }

// Run executes one experiment by identifier.
func Run(name string, o Options, w io.Writer) error {
	e, ok := registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return e.render(o, w)
}

// Rows computes the typed rows backing one experiment, without
// rendering tables.
func Rows(name string, o Options) (any, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return e.rows(o)
}

// RowsWithReport is Rows plus the run's FailureReport: every fault the
// sweep absorbed (panics isolated, errors, timeouts, quarantined cache
// entries) with its disposition. A clean run returns an empty report.
// Under Options.Tolerate the rows come back degraded instead of err
// being set when points failed.
func RowsWithReport(name string, o Options) (any, *FailureReport, error) {
	e, ok := registry[name]
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	rec := &failureRecorder{}
	o.rec = rec
	rows, err := e.rows(o)
	return rows, rec.report(name), err
}

// RunAll executes every experiment in paper order. Individual
// experiments parallelize internally per Options.Workers; running the
// experiments themselves in sequence keeps output streaming in paper
// order and bounds concurrency at one worker pool.
func RunAll(o Options, w io.Writer) error {
	for _, name := range order {
		if err := Run(name, o, w); err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
