package fpcache

// The bench harness: one benchmark per paper table/figure (DESIGN.md
// §4 maps each to its experiment driver), plus microbenchmarks of the
// performance-critical structures. Figure benches run reduced-size
// experiments per iteration and report rows through b.Log on the
// first iteration; `cmd/fpbench` regenerates the full-size versions.
//
//	go test -bench=. -benchmem
//	go run ./cmd/fpbench            # full-size reproduction

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"fpcache/internal/dcache"
	"fpcache/internal/dram"
	"fpcache/internal/experiments"
	"fpcache/internal/memtrace"
	"fpcache/internal/sim"
	"fpcache/internal/synth"
	"fpcache/internal/system"
)

// benchOptions is the reduced experiment size used per benchmark
// iteration.
func benchOptions() experiments.Options {
	return experiments.Options{
		Scale:      1.0 / 64,
		Refs:       60_000,
		WarmupRefs: 60_000,
		TimingRefs: 15_000,
		Seed:       1,
		Workloads:  []string{WebSearch, MapReduce},
		Capacities: []int{64, 256},
	}
}

func benchExperiment(b *testing.B, name string) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 regenerates the die-stacking opportunity study
// (high-BW and high-BW+low-latency stacked main memory vs baseline).
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "figure1") }

// BenchmarkTable4 regenerates the cache-parameter table (SRAM
// metadata budgets and latencies).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFigure4 regenerates the page-density histograms.
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "figure4") }

// BenchmarkFigure5 regenerates miss ratios and normalized off-chip
// bandwidth for page/footprint/block.
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "figure5") }

// BenchmarkFigure6 regenerates the performance comparison (all
// workloads in the bench subset except Data Serving).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "figure6") }

// BenchmarkFigure7 regenerates the Data Serving performance
// comparison.
func BenchmarkFigure7(b *testing.B) {
	o := benchOptions()
	o.TimingRefs = 10_000 // Data Serving saturates; keep iterations bounded
	for i := 0; i < b.N; i++ {
		if err := experiments.Run("figure7", o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 regenerates predictor accuracy vs page size.
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "figure8") }

// BenchmarkFigure9 regenerates hit ratio vs FHT size.
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, "figure9") }

// BenchmarkFigure10 regenerates off-chip energy per instruction.
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "figure10") }

// BenchmarkFigure11 regenerates stacked energy per instruction.
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "figure11") }

// BenchmarkFigure12 regenerates the hot-page coverage analysis.
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "figure12") }

// BenchmarkAblationSingleton covers §6.5 (singleton capacity
// optimization) and §3.1 (fetch-policy bounds) in one driver.
func BenchmarkAblationSingleton(b *testing.B) { benchExperiment(b, "ablation") }

// --- Microbenchmarks of the hot structures ---

// BenchmarkGeneratorThroughput measures trace generation rate.
func BenchmarkGeneratorThroughput(b *testing.B) {
	prof, err := synth.ByName(WebSearch)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := synth.NewGenerator(prof, 1, 1.0/16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

// BenchmarkFootprintAccess measures the Footprint Cache's per-access
// cost in functional mode, as BuildDesign composes it for every
// production path.
func BenchmarkFootprintAccess(b *testing.B) { benchBuiltAccess(b, system.KindFootprint) }

// BenchmarkBlockCacheAccess measures the block-based comparator's
// per-access cost (MissMap + in-DRAM tag model).
func BenchmarkBlockCacheAccess(b *testing.B) { benchBuiltAccess(b, system.KindBlock) }

// benchBuiltAccess times Design.Access of a BuildDesign-built kind at
// 256MB (1/16 scale) over a random mixed read/write stream.
func benchBuiltAccess(b *testing.B, kind string) {
	d, err := system.BuildDesign(system.DesignSpec{Kind: kind, PaperCapacityMB: 256, Scale: 1.0 / 16})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	recs := make([]memtrace.Record, 1<<16)
	for i := range recs {
		recs[i] = memtrace.Record{
			PC:    memtrace.PC(0x400000 + rng.Intn(256)*4),
			Addr:  memtrace.Addr(rng.Intn(1<<22) * 64),
			Write: rng.Intn(3) == 0,
		}
	}
	var ops []dcache.Op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = d.Access(recs[i&(1<<16-1)], ops).Ops
	}
}

// BenchmarkDRAMController measures the event-driven DRAM timing model
// per request, submit to completion. Requests come from a ring of
// long-lived dram.Requests, each resubmitted once its Done has fired,
// so the loop times the controller and the engine rather than
// allocation. open-page submits random 64B reads and writes and runs
// the engine 10000 cycles ahead after every 64; close-page-saturated
// keeps the whole ring in flight under close-page, so every bank queue
// stays deep and each request waits on arbitration.
func BenchmarkDRAMController(b *testing.B) {
	b.Run("open-page", func(b *testing.B) {
		benchController(b, dram.OpenPage, 64, false)
	})
	b.Run("close-page-saturated", func(b *testing.B) {
		benchController(b, dram.ClosePage, 128, true)
	})
}

func benchController(b *testing.B, policy dram.RowPolicy, ring int, saturated bool) {
	cfg := dram.StackedDDR3_3200()
	cfg.Policy = policy
	eng := &sim.Engine{}
	ctrl := dram.NewController(eng, cfg)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]memtrace.Addr, 1<<12)
	for i := range addrs {
		addrs[i] = memtrace.Addr(rng.Intn(1<<20) * 64)
	}
	reqs := make([]dram.Request, ring)
	busy := make([]bool, ring)
	for i := range reqs {
		reqs[i].Bytes = 64
		reqs[i].Done = func(sim.Cycle) { busy[i] = false }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % ring
		for busy[slot] {
			eng.Step()
		}
		r := &reqs[slot]
		r.Addr = addrs[i&(len(addrs)-1)]
		r.Write = i%3 == 0
		busy[slot] = true
		ctrl.Submit(r)
		if !saturated && i%64 == 0 {
			eng.RunUntil(eng.Now() + 10000)
		}
	}
	eng.Run(nil)
}

// BenchmarkTrackerAccess measures the functional DRAM row tracker on
// 64B block and 2KB page transfers under both row policies.
func BenchmarkTrackerAccess(b *testing.B) {
	for _, policy := range []dram.RowPolicy{dram.OpenPage, dram.ClosePage} {
		for _, bytes := range []int{64, 2048} {
			b.Run(fmt.Sprintf("%v/%dB", policy, bytes), func(b *testing.B) {
				cfg := dram.StackedDDR3_3200()
				cfg.Policy = policy
				tr := dram.NewTracker(cfg)
				rng := rand.New(rand.NewSource(1))
				addrs := make([]memtrace.Addr, 1<<12)
				for i := range addrs {
					addrs[i] = memtrace.Addr(rng.Intn(1<<24) &^ (bytes - 1))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr.Access(addrs[i&(1<<12-1)], bytes, i%3 == 0)
				}
			})
		}
	}
}

// BenchmarkEventEngine measures raw DES throughput per event. chain
// runs one event at a time, each scheduling the next a cycle later.
// mixed-delta keeps 64 events pending at spread-out deltas: mostly
// short, some up to 1000 cycles, and one in 64 beyond the event
// queue's 2048-cycle timing wheel, into its overflow heap.
func BenchmarkEventEngine(b *testing.B) {
	b.Run("chain", func(b *testing.B) {
		eng := &sim.Engine{}
		n := 0
		var spawn func()
		spawn = func() {
			n++
			if n < b.N {
				eng.After(1, spawn)
			}
		}
		eng.Schedule(0, spawn)
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run(nil)
	})
	b.Run("mixed-delta", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		deltas := make([]sim.Cycle, 1<<10)
		for i := range deltas {
			switch {
			case i%64 == 0:
				deltas[i] = sim.Cycle(2048 + rng.Intn(8192))
			case i%8 == 0:
				deltas[i] = sim.Cycle(rng.Intn(1000))
			default:
				deltas[i] = sim.Cycle(rng.Intn(64))
			}
		}
		rng.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })
		eng := &sim.Engine{}
		n := 0
		var spawn func()
		spawn = func() {
			if n < b.N {
				eng.After(deltas[n&(len(deltas)-1)], spawn)
				n++
			}
		}
		for i := 0; i < 64; i++ {
			eng.Schedule(sim.Cycle(i), spawn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run(nil)
	})
}

// BenchmarkFunctionalPipeline measures the end-to-end functional
// simulation rate (generator -> footprint cache -> DRAM trackers), one
// reference per iteration. allocs/op amortizes the run's fixed set-up
// over b.N; the steady-state cost per reference is zero
// (TestFunctionalZeroAllocs).
func BenchmarkFunctionalPipeline(b *testing.B) {
	d, err := NewDesign(Config{Workload: WebSearch, Design: Footprint, PaperCapacityMB: 64, Scale: 1.0 / 64})
	if err != nil {
		b.Fatal(err)
	}
	src, _, err := NewTrace(Config{Workload: WebSearch, Scale: 1.0 / 64, Refs: b.N})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := system.RunFunctional(d, src, 0, b.N); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkTimingPipeline measures the end-to-end timing simulation
// rate (generator -> footprint cache -> demux -> cores -> DRAM
// controllers -> event engine), one reference per iteration, after a
// functional warmup outside the timer. allocs/op amortizes the run's
// fixed set-up over b.N; the steady-state cost per reference is zero
// (TestTimingZeroAllocs).
func BenchmarkTimingPipeline(b *testing.B) {
	cfg := Config{Workload: WebSearch, Design: Footprint, PaperCapacityMB: 64, Scale: 1.0 / 64}
	d, err := NewDesign(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src, prof, err := NewTrace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var ops []dcache.Op
	for i := 0; i < 100_000; i++ {
		rec, _ := src.Next()
		ops = d.Access(rec, ops).Ops
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := system.RunTiming(d, src, system.TimingConfig{Cores: prof.Cores, MLP: prof.MLP, MaxRefs: b.N}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}
