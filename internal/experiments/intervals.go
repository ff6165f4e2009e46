package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fpcache/internal/memtrace"
	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// IntervalRow is one mode of the interval-parallel study over a
// workload's trace: the serial reference, the cold interval run that
// populates boundary checkpoints, the warm run that restores them and
// measures all intervals concurrently, and the sampled run that trades
// exactness for a bounded per-interval cost.
//
// Seconds and Speedup are wall-clock measurements and therefore the
// only nondeterministic fields; row-comparison harnesses must strip
// them (the CI comparators do). Everything else — including Match,
// which pins the merged result byte-identical to the serial run — is
// reproducible at any worker count.
type IntervalRow struct {
	Workload  string `json:"workload"`
	Mode      string `json:"mode"`
	Workers   int    `json:"workers"`
	Intervals int    `json:"intervals"`
	Segments  int    `json:"segments"`
	Restored  int    `json:"restored"`
	Refs      uint64 `json:"refs"`
	// HitRatio is the merged run's DRAM-cache hit ratio; sampled rows
	// accompany it with the measured fraction and the 95% confidence
	// half-width over per-interval ratios.
	HitRatio         float64 `json:"hit_ratio"`
	MeasuredFraction float64 `json:"measured_fraction"`
	HitRatioCI95     float64 `json:"hit_ratio_ci95"`
	// Match reports byte-identity of the merged functional result
	// against the serial reference (always true for exact modes; not
	// applicable to sampled rows, which report false by construction
	// only when sampling skipped intervals).
	Match bool `json:"match"`
	// Seconds is this mode's wall-clock; Speedup is serial seconds
	// over this mode's seconds (1 for the serial row itself).
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup"`
}

// intervalsPerRun is the interval count the study splits each trace
// into — enough chains to occupy a reasonable worker pool without
// shrinking intervals below the warm-state write cost.
const intervalsPerRun = 8

// intervalSampleEvery is the sampled mode's stride: measure one
// interval in four.
const intervalSampleEvery = 4

// IntervalRows runs the interval-parallel study: per workload, write
// the synthetic trace to a v2 file once, then run it serially, as a
// cold interval run (one chain, storing boundary checkpoints), as a
// warm interval run (every interval restores and measures
// concurrently — the mode whose Speedup column answers "what did
// parallelism buy"), and sampled. Honor -j: with one worker the warm
// run degenerates to serial and Speedup hovers near 1.
func IntervalRows(o Options) ([]IntervalRow, error) {
	o = o.withDefaults()
	var rows []IntervalRow
	for _, wl := range o.Workloads {
		wrows, err := intervalWorkloadRows(o, wl)
		if err != nil {
			return nil, err
		}
		rows = append(rows, wrows...)
	}
	return rows, nil
}

// intervalWorkloadRows runs the four modes over one workload's trace.
func intervalWorkloadRows(o Options, wl string) ([]IntervalRow, error) {
	dir, err := os.MkdirTemp("", "fpcache-intervals-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	total := o.WarmupRefs + o.Refs
	path := filepath.Join(dir, "trace.v2")
	if err := writeTraceFile(o, wl, path, total); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := memtrace.NewFileReader(f)
	if err != nil {
		return nil, err
	}

	spec := system.DesignSpec{Kind: system.KindFootprint, PaperCapacityMB: o.Capacities[0], Scale: o.Scale}
	workers := o.workerCount()

	// Serial reference, timed on the same file the intervals read.
	design, err := system.BuildDesign(spec)
	if err != nil {
		return nil, err
	}
	serialSrc, err := tr.OpenSection(0, tr.Len())
	if err != nil {
		return nil, err
	}
	//fplint:ignore determinism feeds the documented wall-clock Seconds/Speedup fields; parity checks exclude them
	start := time.Now()
	serial, err := system.RunFunctional(design, serialSrc, o.WarmupRefs, o.Refs)
	if err != nil {
		return nil, err
	}
	//fplint:ignore determinism feeds the documented wall-clock Seconds/Speedup fields; parity checks exclude them
	serialSecs := time.Since(start).Seconds()
	serialJSON, err := json.Marshal(serial)
	if err != nil {
		return nil, err
	}

	cache, err := system.NewWarmCache(filepath.Join(dir, "ckpt"))
	if err != nil {
		return nil, err
	}
	opt := system.IntervalOptions{
		Spec: spec, Workload: wl, Seed: o.Seed, Scale: o.Scale,
		WarmupRefs: o.WarmupRefs, MaxRefs: o.Refs,
		Intervals: intervalsPerRun, Workers: workers,
		Timeout: o.PointTimeout,
	}
	rows := []IntervalRow{{
		Workload: wl, Mode: "serial", Workers: 1, Intervals: 1, Segments: 1,
		Refs: serial.Refs, HitRatio: serial.Counters.HitRatio(),
		MeasuredFraction: 1, Match: true, Seconds: serialSecs, Speedup: 1,
	}}

	mode := func(name string, tweak func(*system.IntervalOptions)) error {
		run := opt
		tweak(&run)
		//fplint:ignore determinism feeds the documented wall-clock Seconds/Speedup fields; parity checks exclude them
		start := time.Now()
		rep, err := system.RunIntervals(tr, run)
		if err != nil {
			return fmt.Errorf("%s interval run: %w", name, err)
		}
		//fplint:ignore determinism feeds the documented wall-clock Seconds/Speedup fields; parity checks exclude them
		secs := time.Since(start).Seconds()
		got, err := json.Marshal(rep.Functional)
		if err != nil {
			return err
		}
		row := IntervalRow{
			Workload: wl, Mode: name, Workers: run.Workers,
			Intervals: len(rep.Intervals), Segments: rep.Segments, Restored: rep.Restored,
			Refs: rep.Functional.Refs, HitRatio: rep.Functional.Counters.HitRatio(),
			MeasuredFraction: rep.MeasuredFraction,
			Match:            string(got) == string(serialJSON),
			Seconds:          secs, Speedup: stats.Ratio(serialSecs, secs),
		}
		if rep.Sampled {
			row.HitRatio = rep.HitRatioMean
			row.HitRatioCI95 = rep.HitRatioCI95
		}
		rows = append(rows, row)
		return nil
	}
	if err := mode("cold", func(run *system.IntervalOptions) { run.Cache = cache }); err != nil {
		return nil, err
	}
	if err := mode("parallel", func(run *system.IntervalOptions) { run.Cache = cache }); err != nil {
		return nil, err
	}
	if err := mode("sampled", func(run *system.IntervalOptions) {
		run.SampleEvery = intervalSampleEvery
		run.SampleWarmup = o.WarmupRefs
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// writeTraceFile generates total records of a workload into a chunked
// v2 trace file.
func writeTraceFile(o Options, wl, path string, total int) error {
	src, _, err := o.trace(wl)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := memtrace.NewWriterV2(f)
	for i := 0; i < total; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Intervals renders the interval-parallel study.
func Intervals(o Options, w io.Writer) error {
	rows, err := IntervalRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Intervals: interval-parallel simulation (serial vs cold/warm checkpoints vs sampled)")
	var t stats.Table
	t.Header("workload", "mode", "workers", "intervals", "segments", "restored", "hit", "±ci95", "fraction", "match", "seconds", "speedup")
	for _, r := range rows {
		t.Row(r.Workload, r.Mode, fmt.Sprint(r.Workers), fmt.Sprint(r.Intervals),
			fmt.Sprint(r.Segments), fmt.Sprint(r.Restored),
			fmt.Sprintf("%.4f", r.HitRatio),
			fmt.Sprintf("%.4f", r.HitRatioCI95),
			fmt.Sprintf("%.2f", r.MeasuredFraction),
			fmt.Sprint(r.Match),
			fmt.Sprintf("%.3f", r.Seconds),
			fmt.Sprintf("%.2f", r.Speedup))
	}
	_, err = io.WriteString(w, t.String())
	return err
}
