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
// Warm state can be checkpointed and restored (§5.4's warmed
// checkpoints): -checkpoint writes the post-warmup snapshot to a file
// before measuring, and -restore loads one instead of simulating
// warmup — the measured result is byte-identical either way.
//
// A long recorded trace can be simulated interval-parallel
// (DESIGN.md §11): -intervals splits the measured region into
// chunk-aligned intervals that run concurrently on -j workers and
// merge into the exact serial result; -interval-cache persists
// boundary checkpoints so runs after the first parallelize fully;
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
//	fpsim -design footprint -checkpoint warm.snap
//	fpsim -design footprint -restore warm.snap
//	fpsim -design footprint -trace-in run.trace -skip 500000
//	fpsim -design footprint -trace-in run.trace -intervals 8 -j 4
//	fpsim -design footprint -trace-in run.trace -intervals 8 -interval-cache .ckpt
//	fpsim -design footprint -trace-in run.trace -intervals 16 -sample-every 4
//	fpsim -design footprint+memcache:50 -resize 0.25,0.75 -resize-every 250000
//	fpsim -design subblock+memlow:0 -adaptive
//	fpsim -point-timeout 5m
//	fpsim -fault-spec 'trace-read:flipbit:offset=64' -trace-in run.trace
//	fpsim -list
//
// A failing point never takes the sweep down (DESIGN.md §10): a panic
// is isolated, -point-timeout bounds each point, every failed point is
// reported on stderr, surviving points still print, and the exit
// status is 1. -fault-spec injects scheduled faults — point failures
// and trace-read stream corruption — to exercise that path.
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
	"fpcache/internal/faultinject"
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
		traceIn   = flag.String("trace-in", "", "replay a recorded trace file instead of the generator (functional mode); '-' reads the trace from stdin")
		skip      = flag.Int("skip", 0, "fast-forward N trace records before the run via the chunk index (requires a seekable -trace-in file)")
		intervals = flag.Int("intervals", 0, "split the measured region into N chunk-aligned intervals and simulate them in parallel on -j workers (requires a seekable -trace-in file, single point)")
		intCache  = flag.String("interval-cache", "", "content-keyed checkpoint directory for interval boundary states: a cold run populates it, later runs restore and parallelize (requires -intervals)")
		sampleK   = flag.Int("sample-every", 0, "sampled mode: measure every k-th interval after a cold pre-roll instead of chaining exact state (requires -intervals)")
		sampleW   = flag.Int("interval-warmup", 0, "cold pre-roll records before each sampled interval (default: the interval's own length; requires -sample-every)")
		checkpt   = flag.String("checkpoint", "", "write the post-warmup warm-state snapshot to this file, then measure (functional mode, single point)")
		restore   = flag.String("restore", "", "restore the warm state from this snapshot instead of simulating warmup (functional mode, single point)")
		timeout   = flag.Duration("point-timeout", 0, "deadline for each simulation point (0 = none)")
		faultSpec = flag.String("fault-spec", "", "inject scheduled faults, e.g. 'point:error:point=1;trace-read:flipbit:offset=64' (testing the fault tolerance itself)")
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
	if (*checkpt != "" || *restore != "") && *mode != "functional" {
		fail(fmt.Errorf("-checkpoint/-restore require -mode functional"))
	}
	if *checkpt != "" && *restore != "" {
		fail(fmt.Errorf("-checkpoint and -restore are mutually exclusive"))
	}
	if (*checkpt != "" || *restore != "") && *traceOut != "" {
		fail(fmt.Errorf("-checkpoint/-restore do not combine with -trace-out"))
	}
	if *skip > 0 {
		switch {
		case *traceIn == "":
			fail(fmt.Errorf("-skip fast-forwards a recorded trace; it requires -trace-in"))
		case *traceIn == "-":
			fail(fmt.Errorf("-skip needs a seekable trace file to fast-forward via the chunk index; stdin is not seekable (replay from a file instead)"))
		case *checkpt != "" || *restore != "":
			fail(fmt.Errorf("-skip does not combine with -checkpoint/-restore (a restore already fast-forwards its warmup)"))
		}
	}
	if *intervals > 0 {
		switch {
		case *traceIn == "":
			fail(fmt.Errorf("-intervals simulates a recorded trace; it requires -trace-in"))
		case *traceIn == "-":
			fail(fmt.Errorf("-intervals needs a seekable trace file (each interval reads its own section); stdin is not seekable"))
		case *traceOut != "" || *checkpt != "" || *restore != "":
			fail(fmt.Errorf("-intervals does not combine with -trace-out/-checkpoint/-restore (use -interval-cache for boundary checkpoints)"))
		case *skip > 0:
			fail(fmt.Errorf("-intervals does not combine with -skip"))
		case *faultSpec != "":
			fail(fmt.Errorf("-intervals does not combine with -fault-spec"))
		}
	} else if *intCache != "" || *sampleK != 0 || *sampleW != 0 {
		fail(fmt.Errorf("-interval-cache/-sample-every/-interval-warmup require -intervals"))
	}

	var inj *faultinject.Injector
	if *faultSpec != "" {
		var err error
		if inj, err = faultinject.Parse(*faultSpec); err != nil {
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
	type point struct {
		workload string
		design   string
		capMB    int
	}
	var pts []point
	for _, wl := range workloads {
		for _, d := range designs {
			for _, mb := range capacities {
				pts = append(pts, point{wl, d, mb})
			}
		}
	}
	if len(pts) == 0 {
		fail(fmt.Errorf("no simulation points: -workload, -design, and -capacity must each name at least one value"))
	}
	if *traceOut != "" && len(pts) > 1 {
		fail(fmt.Errorf("-trace-out records one run; got %d simulation points", len(pts)))
	}
	if (*checkpt != "" || *restore != "") && len(pts) > 1 {
		fail(fmt.Errorf("-checkpoint/-restore address one run's warm state; got %d simulation points", len(pts)))
	}
	if *intervals > 0 {
		if len(pts) > 1 {
			fail(fmt.Errorf("-intervals parallelizes one run over its intervals; got %d simulation points (use -j without -intervals to sweep points)", len(pts)))
		}
		cfg := fpcache.Config{
			Workload:         pts[0].workload,
			Design:           fpcache.DesignKind(pts[0].design),
			PaperCapacityMB:  pts[0].capMB,
			Scale:            *scale,
			Refs:             *refs,
			WarmupRefs:       *warmup,
			Seed:             *seed,
			ResizePeriodRefs: *resizeN,
			ResizeFractions:  fractions,
			AdaptiveResize:   *adaptive,
		}
		if err := runIntervalPoint(os.Stdout, cfg, *mode, *traceIn, *intCache, *intervals, *sampleK, *sampleW, *workers, *timeout); err != nil {
			fail(err)
		}
		return
	}

	job := func(i int) (string, error) {
		p := pts[i]
		cfg := fpcache.Config{
			Workload:         p.workload,
			Design:           fpcache.DesignKind(p.design),
			PaperCapacityMB:  p.capMB,
			Scale:            *scale,
			Refs:             *refs,
			WarmupRefs:       *warmup,
			Seed:             *seed,
			ResizePeriodRefs: *resizeN,
			ResizeFractions:  fractions,
			AdaptiveResize:   *adaptive,
		}
		var buf bytes.Buffer
		if *mode == "functional" {
			var res fpcache.FunctionalResult
			var err error
			if *checkpt != "" || *restore != "" {
				res, err = runWarmStatePoint(cfg, *traceIn, *checkpt, *restore, inj)
			} else {
				res, err = runFunctionalPoint(cfg, *traceIn, *traceOut, *skip, inj)
			}
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

	seq := inj.NextSweep()
	reports, failed := sweep.Map(*workers, len(pts), sweep.Policy{Timeout: *timeout}, func(i int) (string, error) {
		if err := inj.Point(seq, i); err != nil {
			return "", err
		}
		return job(i)
	})
	for _, r := range failed {
		p := pts[r.Index]
		fmt.Fprintf(os.Stderr, "fpsim: %s/%s/%dMB failed [%s]: %v\n",
			p.workload, p.design, p.capMB, fault.ClassOf(r.Err), r.Err)
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

// runFunctionalPoint runs one functional simulation, optionally
// replaying its reference stream from a trace file (traceIn, "-" for
// stdin) or recording it to one (traceOut). A recorded file contains
// the whole stream — warmup prefix included — so a replay with the
// same -warmup/-refs split reproduces the run bit-identically. A
// positive skip fast-forwards that many records before the run via the
// seekable reader's chunk index (no decode of the skipped prefix), so
// one long recording serves runs over any of its regions.
func runFunctionalPoint(cfg fpcache.Config, traceIn, traceOut string, skip int, inj *faultinject.Injector) (fpcache.FunctionalResult, error) {
	switch {
	case traceIn != "":
		var src memtrace.Source
		var srcErr func() error
		if traceIn == "-" {
			r := memtrace.NewReader(inj.Reader(faultinject.SiteTraceRead, os.Stdin))
			src, srcErr = r, r.Err
		} else {
			f, err := os.Open(traceIn)
			if err != nil {
				return fpcache.FunctionalResult{}, err
			}
			defer f.Close()
			if skip > 0 {
				fr, err := memtrace.NewFileReader(inj.ReadSeeker(faultinject.SiteTraceRead, f))
				if err != nil {
					return fpcache.FunctionalResult{}, err
				}
				skipped, err := fr.SkipRecords(skip)
				if err != nil {
					return fpcache.FunctionalResult{}, err
				}
				if skipped < skip {
					return fpcache.FunctionalResult{}, fmt.Errorf("trace %s holds only %d of the %d records -skip requested", traceIn, skipped, skip)
				}
				src, srcErr = fr, fr.Err
			} else {
				r := memtrace.NewReader(inj.Reader(faultinject.SiteTraceRead, f))
				src, srcErr = r, r.Err
			}
		}
		res, err := fpcache.RunFunctionalSource(cfg, src)
		if err == nil {
			err = srcErr()
		}
		if err == nil && res.Refs < uint64(cfg.Refs) {
			// A short trace silently truncates the run; surface it so a
			// result never masquerades as a longer measurement.
			err = fmt.Errorf("trace %s exhausted after %d measured references (want %d; check -warmup/-refs against the recording)",
				traceIn, res.Refs, cfg.Refs)
		}
		return res, err
	case traceOut != "":
		src, _, err := fpcache.NewTrace(cfg)
		if err != nil {
			return fpcache.FunctionalResult{}, err
		}
		f, err := os.Create(traceOut)
		if err != nil {
			return fpcache.FunctionalResult{}, err
		}
		tee := &teeSource{src: src, w: memtrace.NewWriter(f)}
		res, err := fpcache.RunFunctionalSource(cfg, tee)
		if err == nil {
			err = tee.err
		}
		if ferr := tee.w.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return res, err
	default:
		return fpcache.RunFunctional(cfg)
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

// runWarmStatePoint runs one functional simulation through the
// warm-state checkpoint machinery: with restore, the design's warm
// state loads from a snapshot and the warmup prefix is skipped (not
// simulated — seeked past via the chunk index when the trace file is
// indexed); with checkpoint, the state warms normally and the
// snapshot is written before measurement. Either way the measured
// result is byte-identical to an uninterrupted run. The snapshot
// stores the run identity (workload, seed, scale, warmup), so a
// restore under different flags fails instead of silently measuring a
// different run.
func runWarmStatePoint(cfg fpcache.Config, traceIn, checkpoint, restore string, inj *faultinject.Injector) (fpcache.FunctionalResult, error) {
	design, err := fpcache.NewDesign(cfg)
	if err != nil {
		return fpcache.FunctionalResult{}, err
	}
	var src memtrace.Source
	var srcErr func() error
	if traceIn != "" {
		f, err := os.Open(traceIn)
		if err != nil {
			return fpcache.FunctionalResult{}, err
		}
		defer f.Close()
		// The seekable reader lets a restore fast-forward warmup via
		// the v2 chunk index (or v1 arithmetic) instead of decoding it.
		r, err := memtrace.NewFileReader(inj.ReadSeeker(faultinject.SiteTraceRead, f))
		if err != nil {
			return fpcache.FunctionalResult{}, err
		}
		src, srcErr = r, r.Err
	} else {
		src, _, err = fpcache.NewTrace(cfg)
		if err != nil {
			return fpcache.FunctionalResult{}, err
		}
	}

	state := system.NewSimState(design)
	// The resize policy is part of the simulation state (a stateful
	// policy's window snapshots with it), so it installs before the
	// restore/warm branch, not after.
	state.SetPolicy(cfg.ResizePolicy())
	warmup := effectiveWarmup(cfg)
	meta := system.SnapshotMeta{Workload: cfg.Workload, Seed: cfg.Seed, Scale: cfg.Scale, WarmupRefs: warmup}
	if restore != "" {
		f, err := os.Open(restore)
		if err != nil {
			return fpcache.FunctionalResult{}, err
		}
		rerr := state.Restore(f, meta)
		f.Close()
		if rerr != nil {
			return fpcache.FunctionalResult{}, rerr
		}
		if skipped := memtrace.Skip(src, warmup); skipped != warmup {
			return fpcache.FunctionalResult{}, fmt.Errorf("trace exhausted after %d of %d warmup records", skipped, warmup)
		}
	} else {
		if err := state.Warm(src, warmup); err != nil {
			return fpcache.FunctionalResult{}, err
		}
		f, err := os.Create(checkpoint)
		if err != nil {
			return fpcache.FunctionalResult{}, err
		}
		serr := state.Snapshot(f, meta)
		if cerr := f.Close(); serr == nil {
			serr = cerr
		}
		if serr != nil {
			return fpcache.FunctionalResult{}, serr
		}
	}

	res, err := state.Measure(src, cfg.Refs)
	if err != nil {
		return res, err
	}
	if srcErr != nil {
		if err := srcErr(); err != nil {
			return res, err
		}
	}
	if res.Refs < uint64(cfg.Refs) {
		return res, fmt.Errorf("trace exhausted after %d measured references (want %d)", res.Refs, cfg.Refs)
	}
	return res, nil
}

// runIntervalPoint runs one trace through the interval-parallel
// runner (DESIGN.md §11): the measured region splits into chunk-aligned
// intervals that simulate concurrently on -j workers and merge into the
// exact serial result — the standard report block prints unchanged, so
// output can be diffed against a serial replay, followed by
// "interval"-prefixed plan lines. With -interval-cache, boundary
// checkpoints persist: the first (cold) run executes serially while
// storing them, and later runs restore and parallelize. With
// -sample-every, only every k-th interval is measured after a cold
// pre-roll, and the report carries the hit-ratio confidence interval
// that approximation costs.
func runIntervalPoint(w io.Writer, cfg fpcache.Config, mode, traceIn, cacheDir string, intervals, sampleK, sampleW, workers int, timeout time.Duration) error {
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
		Spec: system.DesignSpec{
			Kind:            string(cfg.Design),
			PaperCapacityMB: cfg.PaperCapacityMB,
			Scale:           cfg.Scale,
		},
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Scale:      cfg.Scale,
		WarmupRefs: effectiveWarmup(cfg),
		MaxRefs:    cfg.Refs,
		Intervals:  intervals, Workers: workers,
		SampleEvery: sampleK, SampleWarmup: sampleW,
		Timeout: timeout,
	}
	switch {
	case cfg.AdaptiveResize:
		ac := cfg.AdaptiveConfig()
		opt.Adaptive = &ac
	case cfg.ResizePeriodRefs > 0 && len(cfg.ResizeFractions) > 0:
		opt.Plan = &system.ResizePlan{PeriodRefs: cfg.ResizePeriodRefs, Fractions: cfg.ResizeFractions}
	}
	if cacheDir != "" {
		cache, err := system.NewWarmCache(cacheDir)
		if err != nil {
			return err
		}
		opt.Cache = cache
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
