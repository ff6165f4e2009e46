package fpcache

// Allocation budgets for the simulation hot path. The Design.Access
// contract hands the caller's ops scratch buffer to the design, so
// after warmup a functional run performs zero heap allocations per
// reference — these tests pin that property for every design so a
// regression fails CI rather than silently melting throughput.

import (
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
	"fpcache/internal/system"
)

// allocBudgetKinds is every design the zero-allocation budget covers:
// the paper's canonical kinds plus policy compositions exercising
// every engine axis (gated fills, row-spread and hybrid mappings, and
// partitioned stacked capacity with its consistent-hash indexing).
func allocBudgetKinds() []DesignKind {
	kinds := append(Designs(), HybridDesigns()...)
	return append(kinds, "page+blockrow", "subblock+hybrid+hotgate", "page+banshee",
		"footprint+memcache:50", "page+memlow:25", "footprint+banshee+memcache:25")
}

// allTestableDesigns returns every covered design kind at a small
// capacity.
func allTestableDesigns(tb testing.TB) map[string]dcache.Design {
	tb.Helper()
	out := make(map[string]dcache.Design)
	for _, kind := range allocBudgetKinds() {
		d, err := NewDesign(Config{Design: kind, PaperCapacityMB: 64, Refs: 1})
		if err != nil {
			tb.Fatalf("%s: %v", kind, err)
		}
		out[string(kind)] = d
	}
	return out
}

// accessRecords builds a mixed read/write reference stream with
// enough footprint to exercise hits, misses, evictions, and bypasses.
func accessRecords(n int) []memtrace.Record {
	rng := rand.New(rand.NewSource(42))
	recs := make([]memtrace.Record, n)
	for i := range recs {
		recs[i] = memtrace.Record{
			PC:    memtrace.PC(0x400000 + rng.Intn(256)*4),
			Addr:  memtrace.Addr(rng.Intn(1<<22) * 64),
			Write: rng.Intn(3) == 0,
		}
	}
	return recs
}

// TestAccessZeroAllocs asserts the zero-allocation budget: steady
// state Design.Access with a reused scratch buffer must not allocate,
// for every design.
func TestAccessZeroAllocs(t *testing.T) {
	recs := accessRecords(1 << 16)
	for name, d := range allTestableDesigns(t) {
		// Warm the design (tables filled, eviction paths active) and
		// the scratch buffer (grown to the largest outcome).
		var ops []dcache.Op
		for i := 0; i < 1<<17; i++ {
			ops = d.Access(recs[i&(1<<16-1)], ops).Ops
		}
		idx := 0
		avg := testing.AllocsPerRun(2000, func() {
			ops = d.Access(recs[idx&(1<<16-1)], ops).Ops
			idx++
		})
		if avg != 0 {
			t.Errorf("%s: Access allocates %.2f allocs/op in steady state, want 0", name, avg)
		}
	}
}

// TestTimingZeroAllocs pins the timing runner's budget: once its
// in-flight pool, demux queue chunks, controller queues and event heap
// have grown to a run's needs, RunTiming allocates nothing per
// reference. Construction and pool growth are a per-run constant, so
// two identically warmed runs of different lengths differ only by the
// per-reference cost. Bytes are bounded as well as allocations, so a
// buffer that regrows with the run length (the demux's queues once grew
// by append doubling) shows even when it takes few mallocs. The
// partitioned design's resize plan exercises the transition path.
func TestTimingZeroAllocs(t *testing.T) {
	const short, long = 50_000, 250_000
	cases := []Config{
		{Design: Footprint},
		{Design: Block},
		{Design: "footprint+memcache:50", ResizePeriodRefs: 20_000, ResizeFractions: []float64{0.25, 0.75}},
	}
	for _, cfg := range cases {
		cfg.Workload, cfg.PaperCapacityMB, cfg.WarmupRefs = WebSearch, 64, 100_000
		run := func(refs int) (mallocs, bytes uint64) {
			c := cfg
			c.Refs = refs
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := RunTiming(c); err != nil {
				t.Fatalf("%s: %v", cfg.Design, err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
		}
		s, sb := run(short)
		l, lb := run(long)
		perRef := (float64(l) - float64(s)) / (long - short)
		bytesPerRef := (float64(lb) - float64(sb)) / (long - short)
		t.Logf("%s: %d allocs at %d refs, %d at %d refs: %.4f marginal allocs/ref, %.1f marginal B/ref",
			cfg.Design, s, short, l, long, perRef, bytesPerRef)
		if perRef > 0.01 {
			t.Errorf("%s: RunTiming allocates %.4f per reference in steady state, want <= 0.01", cfg.Design, perRef)
		}
		if bytesPerRef > 16 {
			t.Errorf("%s: RunTiming allocates %.1f bytes per reference in steady state, want <= 16", cfg.Design, bytesPerRef)
		}
	}
}

// TestFunctionalZeroAllocs pins the functional runner's budget the
// same way: after warmup, SimState.Measure — Design.Access plus the
// off-chip and stacked DRAM trackers replaying its ops — allocates
// nothing per reference, so two measured runs of different lengths
// differ by at most the budget per reference.
func TestFunctionalZeroAllocs(t *testing.T) {
	const short, long = 50_000, 250_000
	cases := []Config{
		{Design: Footprint},
		{Design: Block},
		{Design: "footprint+memcache:50", ResizePeriodRefs: 20_000, ResizeFractions: []float64{0.25, 0.75}},
	}
	for _, cfg := range cases {
		cfg.Workload, cfg.PaperCapacityMB = WebSearch, 64
		d, err := NewDesign(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Design, err)
		}
		src, _, err := NewTrace(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Design, err)
		}
		state := system.NewSimState(d)
		state.SetPolicy(cfg.ResizePolicy())
		if err := state.Warm(src, 100_000); err != nil {
			t.Fatalf("%s: %v", cfg.Design, err)
		}
		mallocs := func(refs int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := state.Measure(src, refs); err != nil {
				t.Fatalf("%s: %v", cfg.Design, err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		s, l := mallocs(short), mallocs(long)
		perRef := (float64(l) - float64(s)) / (long - short)
		t.Logf("%s: %d allocs at %d refs, %d at %d refs: %.4f marginal allocs/ref", cfg.Design, s, short, l, long, perRef)
		if perRef > 0.01 {
			t.Errorf("%s: SimState.Measure allocates %.4f per reference in steady state, want <= 0.01", cfg.Design, perRef)
		}
	}
}

// TestAllocBudgetManifestAgreement pins the static and runtime
// budgets together: TestAccessZeroAllocs wants 0 allocs/op in steady
// state, so the fplint allocbudget manifest must budget no hot-path
// escapes. A change that adds a manifest entry has to loosen this test
// — and justify the runtime budget — in the same commit, so the two
// enforcement layers cannot drift apart silently.
func TestAllocBudgetManifestAgreement(t *testing.T) {
	raw, err := os.ReadFile("lint/allocbudget.manifest")
	if err != nil {
		t.Fatalf("reading allocbudget manifest: %v", err)
	}
	for i, line := range strings.Split(string(raw), "\n") {
		text := strings.TrimSpace(line)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		t.Errorf("lint/allocbudget.manifest:%d: entry %q budgets a hot-path heap allocation, "+
			"but TestAccessZeroAllocs pins 0 allocs/op — the static and runtime budgets disagree", i+1, text)
	}
}

// BenchmarkDesignAccess measures per-access cost and allocation for
// every design under the scratch-buffer contract.
func BenchmarkDesignAccess(b *testing.B) {
	recs := accessRecords(1 << 16)
	for _, kind := range allocBudgetKinds() {
		b.Run(string(kind), func(b *testing.B) {
			d, err := NewDesign(Config{Design: kind, PaperCapacityMB: 64, Refs: 1})
			if err != nil {
				b.Fatal(err)
			}
			var ops []dcache.Op
			for i := 0; i < 1<<16; i++ {
				ops = d.Access(recs[i], ops).Ops
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops = d.Access(recs[i&(1<<16-1)], ops).Ops
			}
		})
	}
}
