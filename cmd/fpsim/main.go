// Command fpsim runs (workload, design, capacity) simulations and
// prints their metrics — the quickest way to poke at configurations.
//
// Each of -workload, -design, and -capacity accepts a comma-separated
// list; fpsim sweeps the cross product over -j parallel workers
// (internal/sweep), printing reports in declaration order regardless
// of worker count. -design accepts canonical kinds and composite
// policy specs ("footprint+banshee", "page+blockrow"); -list prints
// every valid name.
//
// Functional runs can be recorded and replayed: -trace-out records
// the reference stream (warmup included) to a binary trace file while
// simulating, and -trace-in replays such a file through the design
// instead of the synthetic generator — bit-identical results, no
// generator cost.
//
// Warm state persists across runs (§5.4's warmed checkpoints):
// -state-cache names the content-keyed snapshot directory fpbench
// uses. Each functional point warms once and stores its post-warmup
// state; later runs of the same point, from either command, restore
// it instead of simulating warmup — the measured result is
// byte-identical either way. A -trace-in replay also keys its entries
// by the trace file's content hash, so a state warmed on one stream
// never continues another.
//
// A long recorded trace can be simulated interval-parallel
// (DESIGN.md §11): -intervals splits the measured region into
// chunk-aligned intervals that run concurrently on -j workers and
// merge into the exact serial result; with -state-cache the boundary
// checkpoints persist too, so runs after the first parallelize fully;
// -sample-every measures only every k-th interval (with an
// -interval-warmup cold pre-roll) and reports confidence intervals.
// -skip fast-forwards a replay into the middle of a recording via the
// chunk index, without decoding the skipped prefix.
//
// Partitioned designs (memcache:/memlow: specs) can resize their
// memory/cache split while measuring: -resize replays a static
// fraction schedule on a -resize-every cadence, and -adaptive replaces
// the schedule with the online controller (DESIGN.md §13), which
// scores a telemetry window every epoch and hill-climbs the split —
// deterministically, so results stay byte-identical at any -j and
// across run modes.
//
// Usage:
//
//	fpsim -workload web-search -design footprint -capacity 256
//	fpsim -design page -mode timing -refs 250000
//	fpsim -design page,footprint+banshee -capacity 64,256 -j 4
//	fpsim -design footprint -trace-out run.trace
//	fpsim -design footprint+hybrid -trace-in run.trace
//	fpsim -design page,footprint -state-cache .warm -j 2
//	fpsim -design footprint -trace-in run.trace -skip 500000
//	fpsim -design footprint -trace-in run.trace -intervals 8 -j 4
//	fpsim -design footprint -trace-in run.trace -intervals 8 -state-cache .ckpt
//	fpsim -design footprint -trace-in run.trace -intervals 16 -sample-every 4
//	fpsim -design footprint+memcache:50 -resize 0.25,0.75 -resize-every 250000
//	fpsim -design subblock+memlow:0 -adaptive
//	fpsim -point-timeout 5m
//	fpsim -list
//
// A failing point never takes the sweep down (DESIGN.md §10): a panic
// is isolated, -point-timeout bounds each point, every failed point is
// reported on stderr, surviving points still print, and the exit
// status is 1.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"fpcache"
	"fpcache/internal/fault"
	"fpcache/internal/memtrace"
	"fpcache/internal/sweep"
	"fpcache/internal/system"
)

func main() {
	var (
		workload  = flag.String("workload", fpcache.WebSearch, "workload name(s), comma-separated")
		design    = flag.String("design", string(fpcache.Footprint), "cache design(s) or composite policy spec(s), comma-separated")
		capMB     = flag.String("capacity", "256", "paper-scale capacity list in MB, comma-separated")
		scale     = flag.Float64("scale", fpcache.DefaultScale, "capacity scale factor")
		refs      = flag.Int("refs", 1_000_000, "measured references")
		warmup    = flag.Int("warmup", 0, "warmup references (default: same as -refs)")
		seed      = flag.Int64("seed", 1, "random seed")
		mode      = flag.String("mode", "functional", "simulation mode: functional or timing")
		resize    = flag.String("resize", "", "comma-separated memory fractions cycled by the partition resize driver (partitioned designs, e.g. 0.25,0.75)")
		resizeN   = flag.Int("resize-every", 0, "resize cadence in measured references (requires -resize or -adaptive)")
		adaptive  = flag.Bool("adaptive", false, "adaptive partition resizing: an online controller scores a telemetry window every epoch and hill-climbs the split (partitioned designs; -resize-every sets the epoch length)")
		workers   = flag.Int("j", 0, "parallel simulation points: 0 = all cores, 1 = serial")
		traceOut  = flag.String("trace-out", "", "record the reference stream to this trace file (functional mode, single point)")
		traceIn   = flag.String("trace-in", "", "replay a recorded trace file instead of the generator (functional mode); '-' reads the trace from stdin, which also streams a v2 file whose chunk index is missing")
		skip      = flag.Int("skip", 0, "fast-forward N trace records before the run via the chunk index (requires a seekable -trace-in file)")
		intervals = flag.Int("intervals", 0, "split the measured region into N chunk-aligned intervals and simulate them in parallel on -j workers (requires a seekable -trace-in file, single point)")
		sampleK   = flag.Int("sample-every", 0, "sampled mode: measure every k-th interval after a cold pre-roll instead of chaining exact state (requires -intervals)")
		sampleW   = flag.Int("interval-warmup", 0, "cold pre-roll records before each sampled interval (default: the interval's own length; requires -sample-every)")
		stateDir  = flag.String("state-cache", "", "directory of content-keyed warm-state snapshots, shared with fpbench: each functional point (and each -intervals boundary checkpoint) warms once and later runs restore it (results byte-identical)")
		timeout   = flag.Duration("point-timeout", 0, "deadline for each simulation point (0 = none)")
		list      = flag.Bool("list", false, "list workload, design, and policy names and exit")
	)
	flag.Parse()

	if *list {
		printLists(os.Stdout)
		return
	}

	if *mode != "functional" && *mode != "timing" {
		fail(fmt.Errorf("unknown mode %q (functional or timing)", *mode))
	}
	if (*traceOut != "" || *traceIn != "") && *mode != "functional" && *intervals <= 0 {
		fail(fmt.Errorf("-trace-out/-trace-in require -mode functional (or -intervals, which times each interval from the replayed trace)"))
	}
	if *traceOut != "" && *traceIn != "" {
		fail(fmt.Errorf("-trace-out and -trace-in are mutually exclusive"))
	}
	if *skip > 0 {
		switch {
		case *traceIn == "":
			fail(fmt.Errorf("-skip fast-forwards a recorded trace; it requires -trace-in"))
		case *traceIn == "-":
			fail(fmt.Errorf("-skip needs a seekable trace file to fast-forward via the chunk index; stdin is not seekable (replay from a file instead)"))
		}
	}
	if *stateDir != "" {
		switch {
		case *traceIn == "-":
			fail(fmt.Errorf("-state-cache does not combine with -trace-in - (stdin has no content identity to key entries by)"))
		case *skip > 0:
			fail(fmt.Errorf("-state-cache does not combine with -skip"))
		case *mode == "timing" && *intervals <= 0:
			fail(fmt.Errorf("-state-cache does not combine with -mode timing unless -intervals is set"))
		}
	}
	if *intervals > 0 {
		switch {
		case *traceIn == "":
			fail(fmt.Errorf("-intervals simulates a recorded trace; it requires -trace-in"))
		case *traceIn == "-":
			fail(fmt.Errorf("-intervals needs a seekable trace file (each interval reads its own section); stdin is not seekable"))
		case *traceOut != "":
			fail(fmt.Errorf("-intervals does not combine with -trace-out"))
		case *skip > 0:
			fail(fmt.Errorf("-intervals does not combine with -skip"))
		}
	} else if *sampleK != 0 || *sampleW != 0 {
		fail(fmt.Errorf("-sample-every/-interval-warmup require -intervals"))
	}

	var cache *system.WarmCache
	if *stateDir != "" {
		var err error
		if cache, err = system.NewWarmCache(*stateDir); err != nil {
			fail(err)
		}
	}

	var fractions []float64
	for _, f := range splitList(*resize) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v < 0 || v > 1 {
			fail(fmt.Errorf("bad -resize fraction %q (want 0..1)", f))
		}
		fractions = append(fractions, v)
	}
	if *adaptive {
		if len(fractions) > 0 {
			fail(fmt.Errorf("-adaptive replaces the static -resize schedule; set one or the other"))
		}
	} else if (len(fractions) > 0) != (*resizeN > 0) {
		fail(fmt.Errorf("-resize and -resize-every must be set together"))
	}

	workloads := splitList(*workload)
	designs := splitList(*design)
	for _, d := range designs {
		// Validate specs up front so a typo fails before the sweep
		// starts, not at some point mid-run.
		if _, err := system.NormalizeKind(d); err != nil {
			fail(err)
		}
	}
	var capacities []int
	for _, c := range splitList(*capMB) {
		mb, err := strconv.Atoi(c)
		if err != nil {
			fail(fmt.Errorf("bad capacity %q: %v", c, err))
		}
		capacities = append(capacities, mb)
	}

	// Cross product in declaration order: workload x design x capacity.
	var pts []fpcache.Config
	for _, wl := range workloads {
		for _, d := range designs {
			for _, mb := range capacities {
				pts = append(pts, fpcache.Config{
					Workload: wl, Design: fpcache.DesignKind(d), PaperCapacityMB: mb,
					Scale: *scale, Refs: *refs, WarmupRefs: *warmup, Seed: *seed,
					ResizePeriodRefs: *resizeN, ResizeFractions: fractions, AdaptiveResize: *adaptive,
				})
			}
		}
	}
	if len(pts) == 0 {
		fail(fmt.Errorf("no simulation points: -workload, -design, and -capacity must each name at least one value"))
	}
	if *traceOut != "" && len(pts) > 1 {
		fail(fmt.Errorf("-trace-out records one run; got %d simulation points", len(pts)))
	}
	if *intervals > 0 {
		if len(pts) > 1 {
			fail(fmt.Errorf("-intervals parallelizes one run over its intervals; got %d simulation points (use -j without -intervals to sweep points)", len(pts)))
		}
		if err := runIntervalPoint(os.Stdout, pts[0], *mode, *traceIn, cache, *intervals, *sampleK, *sampleW, *workers, *timeout); err != nil {
			fail(err)
		}
		return
	}
	// Every point replays the same -trace-in file, so its content hash
	// (part of each point's state-cache key) is computed once.
	var traceID string
	if cache != nil && *traceIn != "" {
		var err error
		if traceID, err = fileTraceID(*traceIn); err != nil {
			fail(err)
		}
	}

	job := func(i int) (string, error) {
		cfg := pts[i]
		var buf bytes.Buffer
		if *mode == "functional" {
			res, err := runFunctional(cfg, *traceIn, *traceOut, *skip, cache, traceID)
			if err != nil {
				return "", err
			}
			printFunctional(&buf, cfg, res)
		} else {
			res, err := fpcache.RunTiming(cfg)
			if err != nil {
				return "", err
			}
			printTiming(&buf, cfg, res)
		}
		return buf.String(), nil
	}

	reports, failed := sweep.Map(*workers, len(pts), sweep.Policy{Timeout: *timeout}, job)
	for _, r := range failed {
		p := pts[r.Index]
		fmt.Fprintf(os.Stderr, "fpsim: %s/%s/%dMB failed [%s]: %v\n",
			p.Workload, p.Design, p.PaperCapacityMB, fault.ClassOf(r.Err), r.Err)
	}
	first := true
	for _, rep := range reports {
		if rep == "" { // a faulted point's slot; already reported above
			continue
		}
		if !first {
			fmt.Println()
		}
		first = false
		fmt.Print(rep)
	}
	if len(failed) > 0 {
		os.Exit(1)
	}
}

// teeSource passes records through while writing them to a trace
// file.
type teeSource struct {
	src memtrace.Source
	w   *memtrace.Writer
	err error
}

// Next implements memtrace.Source.
func (t *teeSource) Next() (memtrace.Record, bool) {
	rec, ok := t.src.Next()
	if !ok {
		return rec, false
	}
	if t.err == nil {
		t.err = t.w.Write(rec)
	}
	return rec, true
}

// runFunctional runs one functional simulation. Its reference stream
// comes from the workload generator, from a trace file (traceIn, "-"
// for stdin), or from the generator while recording to traceOut. A
// recorded file contains the whole stream — warmup prefix included —
// so a replay with the same -warmup/-refs split reproduces the run
// bit-identically. A positive skip fast-forwards that many records
// before the run via the file reader's chunk index (no decode of the
// skipped prefix), so one long recording serves runs over any of its
// regions. A trace file opens through the indexed reader, which
// rejects a v2 file without its chunk index; such a file still
// streams from stdin.
//
// With a state cache, the warm state comes from the cache (see
// runCached) instead of simulating the warmup prefix; traceID is the
// trace file's content hash (fileTraceID).
func runFunctional(cfg fpcache.Config, traceIn, traceOut string, skip int, cache *system.WarmCache, traceID string) (fpcache.FunctionalResult, error) {
	var (
		src memtrace.Source
		// done reports the source's deferred error once the run ends,
		// flushing and closing a recording.
		done func() error
	)
	switch {
	case traceIn == "-":
		r := memtrace.NewReader(os.Stdin)
		src, done = r, r.Err
	case traceIn != "":
		f, err := os.Open(traceIn)
		if err != nil {
			return fpcache.FunctionalResult{}, err
		}
		defer f.Close()
		fr, err := memtrace.NewFileReader(f)
		if err != nil {
			return fpcache.FunctionalResult{}, err
		}
		if skip > 0 {
			skipped, err := fr.SkipRecords(skip)
			if err != nil {
				return fpcache.FunctionalResult{}, err
			}
			if skipped < skip {
				return fpcache.FunctionalResult{}, fmt.Errorf("trace %s holds only %d of the %d records -skip requested", traceIn, skipped, skip)
			}
		}
		src, done = fr, fr.Err
	default:
		gen, _, err := fpcache.NewTrace(cfg)
		if err != nil {
			return fpcache.FunctionalResult{}, err
		}
		src, done = gen, func() error { return nil }
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return fpcache.FunctionalResult{}, err
			}
			tee := &teeSource{src: gen, w: memtrace.NewWriter(f)}
			src, done = tee, func() error {
				err := tee.err
				if ferr := tee.w.Flush(); err == nil {
					err = ferr
				}
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				return err
			}
		}
	}

	var res fpcache.FunctionalResult
	var err error
	if cache != nil && effectiveWarmup(cfg) > 0 {
		res, err = runCached(cfg, src, traceID, cache)
	} else {
		res, err = fpcache.RunFunctionalSource(cfg, src)
	}
	// A source error explains the failure it causes downstream (a
	// corrupt trace cuts the warmup short), so it takes precedence.
	if derr := done(); derr != nil {
		err = derr
	}
	if err == nil && traceIn != "" && res.Refs < uint64(cfg.Refs) {
		// A short trace silently truncates the run; surface it so a
		// result never masquerades as a longer measurement.
		err = fmt.Errorf("trace %s exhausted after %d measured references (want %d; check -warmup/-refs against the recording)",
			traceIn, res.Refs, cfg.Refs)
	}
	return res, err
}

// fileTraceID returns a trace file's content hash, the identity its
// state-cache entries are keyed by.
func fileTraceID(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	fr, err := memtrace.NewFileReader(f)
	if err != nil {
		return "", err
	}
	return fr.TraceID()
}

// runCached measures cfg from the warm state system.WarmCache.Warm
// returns for the point: restored (the warmup records of src skipped)
// or warmed and stored. The key is the one fpbench builds for the same
// point, so the two commands share entries; a trace-file replay adds
// the file's content hash (traceID) and the warmup boundary, so a
// state warmed on one stream never continues another. A quarantined
// entry is reported on stderr; the point still measures, cold.
func runCached(cfg fpcache.Config, src memtrace.Source, traceID string, cache *system.WarmCache) (fpcache.FunctionalResult, error) {
	if cfg.Refs <= 0 {
		return fpcache.FunctionalResult{}, fmt.Errorf("-refs must be positive")
	}
	key := system.WarmKey{
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Scale:      cfg.Scale,
		WarmupRefs: effectiveWarmup(cfg),
		Spec:       designSpec(cfg),
	}
	if traceID != "" {
		key.TraceID, key.AtRecord = traceID, uint64(key.WarmupRefs)
	}
	state, quarantined, err := cache.Warm(key, src)
	if quarantined != nil {
		reportQuarantine(cfg, *quarantined)
	}
	if err != nil {
		return fpcache.FunctionalResult{}, err
	}
	state.SetPolicy(cfg.ResizePolicy())
	return state.Measure(src, cfg.Refs)
}

// reportQuarantine reports a corrupt cache entry on stderr; the run
// rebuilt the state cold, so its report is unaffected.
func reportQuarantine(cfg fpcache.Config, q system.QuarantineEvent) {
	fmt.Fprintf(os.Stderr, "fpsim: %s/%s/%dMB: quarantined warm state [%s]: %v\n",
		cfg.Workload, cfg.Design, cfg.PaperCapacityMB, fault.ClassOf(q.Err), q.Err)
}

// designSpec is cfg's design as the state cache keys it.
func designSpec(cfg fpcache.Config) system.DesignSpec {
	return system.DesignSpec{
		Kind:            string(cfg.Design),
		PaperCapacityMB: cfg.PaperCapacityMB,
		Scale:           cfg.Scale,
	}
}

// effectiveWarmup mirrors the facade's Config.WarmupRefs defaulting:
// -1 disables warmup, 0 defaults to the measured reference count.
func effectiveWarmup(cfg fpcache.Config) int {
	switch {
	case cfg.WarmupRefs < 0:
		return 0
	case cfg.WarmupRefs == 0:
		return cfg.Refs
	default:
		return cfg.WarmupRefs
	}
}

// runIntervalPoint runs one trace through the interval-parallel
// runner (DESIGN.md §11): the measured region splits into chunk-aligned
// intervals that simulate concurrently on -j workers and merge into the
// exact serial result — the standard report block prints unchanged, so
// output can be diffed against a serial replay, followed by
// "interval"-prefixed plan lines. With a state cache, boundary
// checkpoints persist: the first (cold) run executes serially while
// storing them, and later runs restore and parallelize. With
// -sample-every, only every k-th interval is measured after a cold
// pre-roll, and the report carries the hit-ratio confidence interval
// that approximation costs.
func runIntervalPoint(w io.Writer, cfg fpcache.Config, mode, traceIn string, cache *system.WarmCache, intervals, sampleK, sampleW, workers int, timeout time.Duration) error {
	f, err := os.Open(traceIn)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := memtrace.NewFileReader(f)
	if err != nil {
		return err
	}
	opt := system.IntervalOptions{
		Spec:       designSpec(cfg),
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Scale:      cfg.Scale,
		WarmupRefs: effectiveWarmup(cfg),
		MaxRefs:    cfg.Refs,
		Intervals:  intervals, Workers: workers,
		SampleEvery: sampleK, SampleWarmup: sampleW,
		Timeout: timeout,
		Cache:   cache,
	}
	switch {
	case cfg.AdaptiveResize:
		ac := cfg.AdaptiveConfig()
		opt.Adaptive = &ac
	case cfg.ResizePeriodRefs > 0 && len(cfg.ResizeFractions) > 0:
		opt.Plan = &system.ResizePlan{PeriodRefs: cfg.ResizePeriodRefs, Fractions: cfg.ResizeFractions}
	}
	if mode == "timing" {
		// The timing engine needs the workload's core count and MLP; the
		// replayed records themselves carry everything else.
		_, prof, err := fpcache.NewTrace(cfg)
		if err != nil {
			return err
		}
		opt.Timing = &system.TimingConfig{Cores: prof.Cores, MLP: prof.MLP}
	}
	rep, err := system.RunIntervals(tr, opt)
	if err != nil {
		return err
	}
	for _, q := range rep.Quarantined {
		reportQuarantine(cfg, q)
	}
	if rep.Timing != nil {
		printTiming(w, cfg, *rep.Timing)
	} else {
		printFunctional(w, cfg, rep.Functional)
	}
	fmt.Fprintf(w, "interval plan:       %d interval(s) in %d segment(s), checkpoints restored %d stored %d\n",
		len(rep.Intervals), rep.Segments, rep.Restored, rep.Stored)
	if rep.Sampled {
		fmt.Fprintf(w, "interval sampling:   measured %.0f%% of records, hit ratio %.4f ± %.4f (95%% CI)\n",
			100*rep.MeasuredFraction, rep.HitRatioMean, rep.HitRatioCI95)
	}
	return nil
}

// printLists writes the valid workload, design, and policy names.
func printLists(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, n := range fpcache.Workloads() {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintln(w, "designs:")
	for _, d := range fpcache.Designs() {
		fmt.Fprintf(w, "  %s\n", d)
	}
	fmt.Fprintln(w, "hybrid designs:")
	for _, d := range fpcache.HybridDesigns() {
		fmt.Fprintf(w, "  %s\n", d)
	}
	p := fpcache.Policies()
	fmt.Fprintln(w, "policies (compose with '+', e.g. footprint+banshee):")
	fmt.Fprintf(w, "  alloc:     %s\n", strings.Join(p.Alloc, " "))
	fmt.Fprintf(w, "  mapping:   %s\n", strings.Join(p.Mapping, " "))
	fmt.Fprintf(w, "  fill:      %s\n", strings.Join(p.Fill, " "))
	fmt.Fprintf(w, "  partition: %s (with a memory share, e.g. memcache:50)\n", strings.Join(p.Partition, " "))
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func printFunctional(w io.Writer, cfg fpcache.Config, res fpcache.FunctionalResult) {
	fmt.Fprintf(w, "workload:            %s\n", cfg.Workload)
	fmt.Fprintf(w, "design:              %s @ %dMB (scale %.4g)\n", res.Design, cfg.PaperCapacityMB, cfg.Scale)
	fmt.Fprintf(w, "references:          %d\n", res.Refs)
	fmt.Fprintf(w, "miss ratio:          %.2f%%\n", 100*res.MissRatio())
	fmt.Fprintf(w, "hit ratio:           %.2f%%\n", 100*res.Counters.HitRatio())
	fmt.Fprintf(w, "bypasses:            %d\n", res.Counters.Bypasses)
	fmt.Fprintf(w, "off-chip bytes/ref:  %.1f\n", res.OffChipBytesPerRef())
	fmt.Fprintf(w, "off-chip row hits:   %.1f%%\n", 100*res.OffChip.RowHitRatio())
	fmt.Fprintf(w, "stacked row hits:    %.1f%%\n", 100*res.Stacked.RowHitRatio())
	if fp := res.Footprint; fp != nil {
		fmt.Fprintf(w, "predictor coverage:  %.1f%%\n", 100*fp.Coverage())
		fmt.Fprintf(w, "overprediction:      %.1f%%\n", 100*fp.Overprediction())
		fmt.Fprintf(w, "underpred misses:    %d\n", fp.UnderpredMisses)
		fmt.Fprintf(w, "singleton bypasses:  %d (corrections %d)\n", fp.SingletonBypasses, fp.STCorrections)
	}
	printPartition(w, res.Partition)
}

// printPartition reports the stacked split and resize activity of a
// partitioned design; nil (unpartitioned) prints nothing.
func printPartition(w io.Writer, p *fpcache.PartitionStats) {
	if p == nil {
		return
	}
	total := p.MemPages + p.CachePages
	fmt.Fprintf(w, "stacked split:       %d/%d pages memory (%.0f%%)\n", p.MemPages, total, 100*float64(p.MemPages)/float64(total))
	fmt.Fprintf(w, "memory-region hits:  %d\n", p.MemHits)
	if p.Resizes > 0 {
		fmt.Fprintf(w, "resizes:             %d (flushed %d clean + %d dirty, purged %d, moved %d, displaced %d)\n",
			p.Resizes, p.FlushedClean, p.FlushedDirty, p.PurgedPages, p.MovedPages, p.DisplacedPages)
	}
}

func printTiming(w io.Writer, cfg fpcache.Config, res fpcache.TimingResult) {
	fmt.Fprintf(w, "workload:            %s\n", cfg.Workload)
	fmt.Fprintf(w, "design:              %s @ %dMB (scale %.4g)\n", res.Design, cfg.PaperCapacityMB, cfg.Scale)
	fmt.Fprintf(w, "references:          %d\n", res.Refs)
	fmt.Fprintf(w, "instructions:        %d\n", res.Instructions)
	fmt.Fprintf(w, "cycles:              %d\n", res.Cycles)
	fmt.Fprintf(w, "aggregate IPC:       %.3f\n", res.AggIPC())
	fmt.Fprintf(w, "avg read latency:    %.0f cycles\n", res.AvgReadLatency)
	fmt.Fprintf(w, "read latency p50:    %.0f cycles\n", res.ReadLatencyP50)
	fmt.Fprintf(w, "read latency p90:    %.0f cycles\n", res.ReadLatencyP90)
	fmt.Fprintf(w, "read latency p99:    %.0f cycles\n", res.ReadLatencyP99)
	fmt.Fprintf(w, "miss ratio:          %.2f%%\n", 100*res.Counters.MissRatio())
	off := res.OffChipEnergyPerInstr()
	stk := res.StackedEnergyPerInstr()
	fmt.Fprintf(w, "off-chip energy/ins: %.1f pJ (act %.1f + burst %.1f)\n", off.TotalPJ(), off.ActPrePJ, off.BurstPJ)
	fmt.Fprintf(w, "stacked energy/ins:  %.1f pJ (act %.1f + burst %.1f)\n", stk.TotalPJ(), stk.ActPrePJ, stk.BurstPJ)
	printPartition(w, res.Partition)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fpsim:", err)
	os.Exit(1)
}
