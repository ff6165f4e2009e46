// Command fpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fpbench                      # run every experiment (paper order)
//	fpbench -figure figure5      # one experiment
//	fpbench -list                # list experiment identifiers
//	fpbench -refs 2000000 -scale 0.0625 -workloads web-search,mapreduce
//	fpbench -j 8                 # sweep simulation points on 8 workers
//	fpbench -json out.json       # machine-readable rows + wall-clock
//	fpbench -state-cache .warm   # warm each point once, restore thereafter
//	fpbench -state-cache .warm -state-cache-max 1073741824
//	fpbench -point-timeout 5m -tolerate
//	fpbench -state-cache .warm -fault-spec 'snapshot-read:flipbit:offset=3,bit=6'
//
// Simulation points fan out over a worker pool (internal/sweep);
// results are gathered in declaration order, so output is
// byte-identical regardless of -j. Each experiment prints the same
// rows/series the paper reports; DESIGN.md §4 indexes them. With
// -json, typed rows and per-experiment wall-clock are written to the
// given file instead of rendering text tables — the seed of the
// BENCH_*.json perf trajectory.
//
// A failing point never takes the sweep down (DESIGN.md §10): a panic
// is isolated, -point-timeout bounds each point, and every fault an
// experiment absorbed lands in its failure report (included per
// experiment in the -json output). Failed points fail their
// experiment unless -tolerate keeps the surviving rows. -fault-spec
// injects scheduled faults (internal/faultinject) to exercise that
// path end to end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fpcache/internal/experiments"
	"fpcache/internal/faultinject"
	"fpcache/internal/sweep"
)

func main() {
	var (
		figure    = flag.String("figure", "", "experiment to run (default: all); see -list")
		list      = flag.Bool("list", false, "list experiment identifiers and exit")
		scale     = flag.Float64("scale", 1.0/16, "capacity scale factor (1.0 = paper scale)")
		refs      = flag.Int("refs", 0, "measured references per functional configuration (default 1000000; the adaptive study defaults to 2000000)")
		warmup    = flag.Int("warmup", 0, "warmup references (default: same as -refs)")
		timing    = flag.Int("timingrefs", 0, "measured references per timing configuration (default: refs/4)")
		seed      = flag.Int64("seed", 1, "random seed")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: all)")
		caps      = flag.String("capacities", "", "comma-separated paper-scale capacities in MB (default: 64,128,256,512)")
		jsonOut   = flag.String("json", "", "write machine-readable rows + per-experiment wall-clock to this file")
		stateDir  = flag.String("state-cache", "", "directory of content-keyed warm-state snapshots: each (workload, design, capacity) point warms once and later runs restore it (results byte-identical)")
		stateMax  = flag.Int64("state-cache-max", 0, "cap the state cache's total size in bytes, evicting oldest entries first (0 = unlimited)")
		timeout   = flag.Duration("point-timeout", 0, "deadline for each simulation point (0 = none)")
		tolerate  = flag.Bool("tolerate", false, "keep an experiment's surviving rows when points fail for good (failed cells degrade to zero and land in the failure report)")
		faultSpec = flag.String("fault-spec", "", "inject scheduled faults, e.g. 'point:error:point=1;snapshot-read:flipbit:offset=40' (testing the fault tolerance itself)")
		workers   = flag.Int("j", 0, "parallel simulation points: 0 = all cores, 1 = serial")
	)
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}

	o := experiments.Options{
		Scale:              *scale,
		Refs:               *refs,
		WarmupRefs:         *warmup,
		TimingRefs:         *timing,
		Seed:               *seed,
		StateCache:         *stateDir,
		StateCacheMaxBytes: *stateMax,
		PointTimeout:       *timeout,
		Tolerate:           *tolerate,
		// Options treats 0 as serial; the CLI treats 0 as "all cores".
		Workers: sweep.Workers(*workers),
	}
	if *faultSpec != "" {
		inj, err := faultinject.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpbench:", err)
			os.Exit(2)
		}
		o.Injector = inj
	}
	if *workloads != "" {
		o.Workloads = strings.Split(*workloads, ",")
	}
	if *caps != "" {
		for _, c := range strings.Split(*caps, ",") {
			var mb int
			if _, err := fmt.Sscanf(strings.TrimSpace(c), "%d", &mb); err != nil {
				fmt.Fprintf(os.Stderr, "fpbench: bad capacity %q: %v\n", c, err)
				os.Exit(2)
			}
			o.Capacities = append(o.Capacities, mb)
		}
	}

	names := experiments.Names()
	if *figure != "" {
		names = []string{*figure}
	}

	if *jsonOut != "" {
		if err := runJSON(names, o, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "fpbench:", err)
			os.Exit(1)
		}
		return
	}

	var err error
	if *figure == "" {
		err = experiments.RunAll(o, os.Stdout)
	} else {
		err = experiments.Run(*figure, o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpbench:", err)
		os.Exit(1)
	}
}

// jsonExperiment is one experiment's machine-readable result.
type jsonExperiment struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Rows    any     `json:"rows"`
	// Failures is the experiment's failure report: every fault the
	// sweep absorbed (panics, errors, timeouts, quarantined cache
	// entries) with its disposition. Omitted on a clean run.
	Failures []experiments.Failure `json:"failures,omitempty"`
}

// jsonReport is the -json file layout: run configuration,
// per-experiment wall-clock and typed rows, and the total.
type jsonReport struct {
	Options      experiments.Options `json:"options"`
	TotalSeconds float64             `json:"total_seconds"`
	Experiments  []jsonExperiment    `json:"experiments"`
}

// runJSON computes typed rows for every named experiment, timing each
// one, and writes the report to path.
func runJSON(names []string, o experiments.Options, path string) error {
	// Record the options as the drivers actually run them (defaults
	// applied), so two BENCH_*.json files are comparable even if the
	// library's defaults change between versions.
	report := jsonReport{Options: o.WithDefaults()}
	total := time.Now()
	for _, name := range names {
		start := time.Now()
		rows, failures, err := experiments.RowsWithReport(name, o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		dt := time.Since(start).Seconds()
		exp := jsonExperiment{Name: name, Seconds: dt, Rows: rows}
		if failures != nil {
			exp.Failures = failures.Failures
		}
		report.Experiments = append(report.Experiments, exp)
		if n := len(exp.Failures); n > 0 {
			fmt.Printf("%-10s %8.2fs  (%d faults absorbed)\n", name, dt, n)
		} else {
			fmt.Printf("%-10s %8.2fs\n", name, dt)
		}
	}
	report.TotalSeconds = time.Since(total).Seconds()

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d experiments, %.2fs total)\n", path, len(report.Experiments), report.TotalSeconds)
	return nil
}
