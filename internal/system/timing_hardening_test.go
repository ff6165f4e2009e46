package system

import (
	"errors"
	"strings"
	"testing"

	"fpcache/internal/dcache"
	"fpcache/internal/fault"
	"fpcache/internal/memtrace"
	"fpcache/internal/testutil"
)

// badDesign emits a structurally invalid outcome DAG: its op depends
// on itself, which dispatch would never submit — the core waiting on
// it would deadlock silently with its pooled in-flight record stranded.
type badDesign struct {
	ctr dcache.Counters
}

func (b *badDesign) Name() string              { return "bad-dag" }
func (b *badDesign) MetadataBits() int64       { return 0 }
func (b *badDesign) Counters() dcache.Counters { return b.ctr }
func (b *badDesign) Access(rec memtrace.Record, ops []dcache.Op) dcache.Outcome {
	ops = append(ops[:0], dcache.Op{
		Level: dcache.OffChip, Addr: rec.Addr, Bytes: 64,
		Critical: true, DependsOn: 0, // self-dependency: a cycle
	})
	return dcache.Outcome{Ops: ops}
}

// badResizable emits valid outcomes but a cyclic resize-transition op
// list.
type badResizable struct {
	dcache.Baseline
}

func (b *badResizable) Resize(memFraction float64, ops []dcache.Op) []dcache.Op {
	return append(ops, dcache.Op{Level: dcache.Stacked, Addr: 0, Bytes: 64, DependsOn: 0})
}

// mustInvalidOps asserts a runner rejected a malformed op DAG with the
// typed fault — returned, not panicked, so one bad design composition
// fails one sweep point instead of the process.
func mustInvalidOps(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: no error; a malformed op DAG would deadlock the timing run silently", what)
	}
	if !errors.Is(err, fault.ErrInvalidOps) {
		t.Fatalf("%s: error does not wrap fault.ErrInvalidOps: %v", what, err)
	}
	if !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("%s: unexpected error %v", what, err)
	}
}

// TestRunnersRejectCyclicOutcome pins the one validation rule every
// runner inherits from the shared stepper: functional runs, warmup
// alone, and timing runs with and without a warmup all validate their
// leading outcomes and fail on a malformed DAG instead of deadlocking
// a core or measuring garbage.
func TestRunnersRejectCyclicOutcome(t *testing.T) {
	trace := func() memtrace.Source { return testutil.RandomTrace(1000, 5, 4) }
	_, err := RunFunctional(&badDesign{}, trace(), 0, 1000)
	mustInvalidOps(t, "RunFunctional", err)
	mustInvalidOps(t, "SimState.Warm", NewSimState(&badDesign{}).Warm(trace(), 500))
	// The warmup consumes the whole trace, so only the warmup's own
	// validation can catch the design.
	_, err = RunTiming(&badDesign{}, trace(), TimingConfig{Cores: 4, MLP: 2, WarmupRefs: 1000})
	mustInvalidOps(t, "RunTiming with warmup", err)
	_, err = RunTiming(&badDesign{}, trace(), TimingConfig{Cores: 4, MLP: 2, MaxRefs: 1000})
	mustInvalidOps(t, "RunTiming", err)
}

// TestRunnersRejectCyclicResizeOps pins the same validation for
// resize-transition op lists in both runners.
func TestRunnersRejectCyclicResizeOps(t *testing.T) {
	plan := &ResizePlan{PeriodRefs: 100, Fractions: []float64{0.25}}
	_, ferr := RunFunctionalResized(&badResizable{}, testutil.RandomTrace(1000, 5, 4), 0, 1000, plan)
	mustInvalidOps(t, "functional resize", ferr)
	_, terr := RunTiming(&badResizable{}, testutil.RandomTrace(1000, 5, 4), TimingConfig{Cores: 4, MLP: 2, MaxRefs: 1000, Resize: plan})
	mustInvalidOps(t, "timing resize", terr)
}

// skewedTrace builds a trace whose records all name core 0 of a
// multi-core pod — the documented demux worst case: any other core's
// pull drains (and functionally evaluates) the remaining trace into
// core 0's queue.
func skewedTrace(n int) *memtrace.Slice {
	recs := make([]memtrace.Record, n)
	for i := range recs {
		recs[i] = memtrace.Record{
			PC:   memtrace.PC(0x400000 + (i%64)*4),
			Addr: memtrace.Addr((i % (1 << 14)) * 64),
			Gap:  10,
			// Core is always 0.
		}
	}
	return memtrace.NewSlice(recs)
}

// TestQueueHighWaterSkewedTrace pins the documented queue-skew memory
// behavior and its new observability: a fully core-skewed trace drives
// the demux high-water mark to nearly the whole trace, while an evenly
// interleaved trace keeps queues shallow.
func TestQueueHighWaterSkewedTrace(t *testing.T) {
	const refs = 4000
	build := func() dcache.Design {
		d, err := BuildDesign(DesignSpec{Kind: KindPage, PaperCapacityMB: 64, Scale: 1.0 / 64})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	skew := mustTiming(RunTiming(build(), skewedTrace(refs), TimingConfig{Cores: 8, MLP: 2, MaxRefs: refs}))
	if skew.QueueHighWater < refs/2 {
		t.Fatalf("skewed trace high water %d; expected close to %d (the documented drain-ahead blowup)",
			skew.QueueHighWater, refs)
	}

	even := mustTiming(RunTiming(build(), testutil.RandomTrace(refs, 5, 8), TimingConfig{Cores: 8, MLP: 2, MaxRefs: refs}))
	if even.QueueHighWater >= refs/2 {
		t.Fatalf("evenly interleaved trace high water %d; queues should stay shallow", even.QueueHighWater)
	}
	if even.QueueHighWater == 0 {
		t.Fatal("high-water mark not recorded")
	}
}
