package system

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"fpcache/internal/dcache"
	"fpcache/internal/dram"
	"fpcache/internal/fault"
	"fpcache/internal/memtrace"
	"fpcache/internal/sweep"
	"fpcache/internal/synth"
	"fpcache/internal/testutil"
)

// withFeed forces the record feed on (+1) or off (-1) for the rest of
// the test.
func withFeed(t *testing.T, mode int) {
	t.Helper()
	prev := feedOverride
	feedOverride = mode
	t.Cleanup(func() { feedOverride = prev })
}

// countingSource counts the records its owner pulled.
type countingSource struct {
	src memtrace.Source
	n   int
}

func (c *countingSource) Next() (memtrace.Record, bool) {
	rec, ok := c.src.Next()
	if ok {
		c.n++
	}
	return rec, ok
}

// panickingSource panics on the record after its first n.
type panickingSource struct {
	src memtrace.Source
	n   int
}

func (p *panickingSource) Next() (memtrace.Record, bool) {
	if p.n == 0 {
		panic("trace source failed")
	}
	p.n--
	return p.src.Next()
}

// badAtThird is a design whose third outcome is a cyclic op DAG.
type badAtThird struct {
	dcache.Baseline
	seen int
}

func (b *badAtThird) Access(rec memtrace.Record, ops []dcache.Op) dcache.Outcome {
	if b.seen++; b.seen != 3 {
		return b.Baseline.Access(rec, ops)
	}
	ops = append(ops[:0], dcache.Op{Level: dcache.OffChip, Addr: rec.Addr, Bytes: 64, Critical: true, DependsOn: 0})
	return dcache.Outcome{Ops: ops}
}

// waitNoFeed fails unless every stepper has closed and the goroutine
// count is back to base. A producer leaves its goroutine only just
// after close returns, so the count gets a moment to settle.
func waitNoFeed(t *testing.T, what string, base int) {
	t.Helper()
	if n := runningSteppers.Load(); n != 0 {
		t.Fatalf("%s: %d steppers still counted as running", what, n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d: a producer outlived its run", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFeedGate pins when a stepper reads through a feed: never below
// feedMinRefs, always for a drain while a P is idle, never once the
// running steppers fill every P, and always or never under the test
// hook.
func TestFeedGate(t *testing.T) {
	procs := int64(runtime.GOMAXPROCS(0))
	if wantFeed(feedMinRefs-1, 1) {
		t.Error("a budget below feedMinRefs pipelines")
	}
	if got, want := wantFeed(math.MaxUint64, 1), 2 <= procs; got != want {
		t.Errorf("a lone drain at GOMAXPROCS %d: feed %v, want %v", procs, got, want)
	}
	if wantFeed(feedMinRefs, procs) {
		t.Errorf("%d running steppers at GOMAXPROCS %d still pipeline", procs, procs)
	}
	withFeed(t, 1)
	st := newStepper(&dcache.Baseline{}, testutil.RandomTrace(10, 1, 1), 5, nil, nil, nil, nil)
	if st.feed == nil {
		t.Error("forced-on hook left a stepper without its feed")
	}
	st.close()
	feedOverride = -1
	if wantFeed(math.MaxUint64, 0) {
		t.Error("forced-off hook still pipelines")
	}
	if n := runningSteppers.Load(); n != 0 {
		t.Errorf("%d steppers counted after close", n)
	}
}

// trackerStats is a SimState's two row trackers' running totals.
type trackerStats struct{ OffChip, Stacked dram.Stats }

func trackersOf(s *SimState) trackerStats { return trackerStats{s.offT.Stats, s.stkT.Stats} }

// offChipBursts counts the off-chip tracker's transfers.
func (ts trackerStats) offChipBursts() uint64 { return ts.OffChip.ReadBursts + ts.OffChip.WriteBursts }

// TestFeedParity pins that the feed changes no result: with the feed
// forced on and forced off, Warm followed by Measure on one source and
// RunTiming with a warmup give deeply equal results, under a resize
// plan, and each stepper pulls exactly its budget from the source.
// The row trackers, which the producer drives when the feed is on,
// hold equal totals after Warm and after Measure, and the warm state
// snapshots to the same bytes. The budgets straddle several batch
// boundaries. The return path's entries stay at 16 bytes, two thirds
// of a dcache.Op.
func TestFeedParity(t *testing.T) {
	if got := unsafe.Sizeof(trackOp{}); got != 16 {
		t.Errorf("trackOp is %d bytes, want 16", got)
	}
	const warm, refs = 5_000, 7_500
	plan := &ResizePlan{PeriodRefs: 1_000, Fractions: []float64{0.25, 0.75, 0.5}}
	type run struct {
		warmSnap          []byte
		warmDRAM, endDRAM trackerStats
		fn                FunctionalResult
		tm                TimingResult
	}
	do := func(t *testing.T, kind string, mode int) run {
		withFeed(t, mode)
		build := func() dcache.Design {
			d, err := BuildDesign(partitionSpec(kind))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		var r run
		src := &countingSource{src: testutil.SynthTrace(t, synth.WebSearch, 1, 1.0/16)}
		s := NewSimState(build())
		s.SetPolicy(plan)
		if err := s.Warm(src, warm); err != nil {
			t.Fatal(err)
		}
		if src.n != warm {
			t.Fatalf("feed %+d: Warm pulled %d records, want %d", mode, src.n, warm)
		}
		var snap bytes.Buffer
		if err := s.Snapshot(&snap, SnapshotMeta{Workload: synth.WebSearch, Seed: 1, Scale: 1.0 / 16, WarmupRefs: warm}); err != nil {
			t.Fatal(err)
		}
		r.warmSnap, r.warmDRAM = snap.Bytes(), trackersOf(s)
		r.fn = mustFunctional(s.Measure(src, refs))
		r.endDRAM = trackersOf(s)
		if src.n != warm+refs {
			t.Fatalf("feed %+d: Measure pulled %d records, want %d", mode, src.n-warm, refs)
		}

		src = &countingSource{src: testutil.SynthTrace(t, synth.WebSearch, 1, 1.0/16)}
		r.tm = mustTiming(RunTiming(build(), src, TimingConfig{Cores: 8, MLP: 2, WarmupRefs: warm, MaxRefs: refs, Resize: plan}))
		if src.n != warm+refs {
			t.Fatalf("feed %+d: RunTiming pulled %d records, want %d", mode, src.n, warm+refs)
		}
		return r
	}
	for _, kind := range []string{KindFootprint, KindBlock, "footprint+memcache:50"} {
		t.Run(kind, func(t *testing.T) {
			off, on := do(t, kind, -1), do(t, kind, 1)
			if off.warmDRAM != on.warmDRAM || off.endDRAM != on.endDRAM {
				t.Errorf("row trackers differ\nfeed off: warm %+v, end %+v\nfeed on:  warm %+v, end %+v", off.warmDRAM, off.endDRAM, on.warmDRAM, on.endDRAM)
			}
			if off.warmDRAM.offChipBursts() == 0 {
				t.Error("Warm left the off-chip tracker untouched")
			}
			if !bytes.Equal(off.warmSnap, on.warmSnap) {
				t.Errorf("warm snapshots differ: %d bytes with the feed off, %d with it on", len(off.warmSnap), len(on.warmSnap))
			}
			if !reflect.DeepEqual(off.fn, on.fn) {
				t.Errorf("functional results differ\nfeed off: %s\nfeed on:  %s", testutil.AsJSON(t, off.fn), testutil.AsJSON(t, on.fn))
			}
			if !reflect.DeepEqual(off.tm, on.tm) {
				t.Errorf("timing results differ\nfeed off: %s\nfeed on:  %s", testutil.AsJSON(t, off.tm), testutil.AsJSON(t, on.tm))
			}
			if off.fn.Refs != refs || off.tm.Refs != refs {
				t.Errorf("measured %d functional and %d timing references, want %d", off.fn.Refs, off.tm.Refs, refs)
			}
		})
	}
}

// TestFeedSourcePanicFailsPoint: a source that panics mid-run panics
// on the stepping goroutine, after the records before it, so sweep.Map
// reports the point as failed, with the stack of the source's Next,
// and the process goes on; the producer does not outlive the point.
// The failed point's row trackers hold what they hold without the
// feed.
func TestFeedSourcePanicFailsPoint(t *testing.T) {
	off := panicPointTrackers(t, -1)
	withFeed(t, 1)
	base := runtime.NumGoroutine()
	designs := []*dcache.Baseline{{}, {}}
	states := make([]*SimState, 2)
	job := func(i int) (uint64, error) {
		var src memtrace.Source = testutil.SynthTrace(t, synth.WebSearch, 1, 1.0/16)
		if i == 1 {
			src = &panickingSource{src: src, n: 2_500}
		}
		states[i] = NewSimState(designs[i])
		return warmMeasure(states[i], src)
	}
	out, errs := sweep.Map(2, 2, sweep.Policy{}, job)
	if out[0] != 4_000 {
		t.Errorf("healthy point measured %d references, want 4000", out[0])
	}
	if len(errs) != 1 || errs[0].Index != 1 || !errors.Is(errs[0].Err, fault.ErrPointPanic) {
		t.Fatalf("failures %v, want point 1 failed with a recovered panic", errs)
	}
	var pe *sweep.PanicError
	if !errors.As(errs[0].Err, &pe) || pe.Value != "trace source failed" {
		t.Fatalf("recovered %v, want the source's own panic value", errs[0].Err)
	}
	if !strings.Contains(pe.Stack, "(*panickingSource).Next") {
		t.Errorf("failure's stack does not name the source that panicked:\n%s", pe.Stack)
	}
	if n := designs[1].Counters().Accesses(); n != 2_500 {
		t.Errorf("the failing point stepped %d records before the panic, want 2500", n)
	}
	if on := trackersOf(states[1]); on != off || on.offChipBursts() != 2_500 {
		t.Errorf("failed point's row trackers: feed on %+v, off %+v, want 2500 off-chip bursts", on, off)
	}
	waitNoFeed(t, "panicking source", base)
}

// warmMeasure is TestFeedSourcePanicFailsPoint's point: 2,000 records
// of warmup, then 4,000 measured.
func warmMeasure(s *SimState, src memtrace.Source) (uint64, error) {
	if err := s.Warm(src, 2_000); err != nil {
		return 0, err
	}
	res, err := s.Measure(src, 4_000)
	return res.Refs, err
}

// panicPointTrackers runs TestFeedSourcePanicFailsPoint's failing
// point with the feed in the given mode and returns its row trackers.
func panicPointTrackers(t *testing.T, mode int) trackerStats {
	withFeed(t, mode)
	s := NewSimState(&dcache.Baseline{})
	src := &panickingSource{src: testutil.SynthTrace(t, synth.WebSearch, 1, 1.0/16), n: 2_500}
	_, errs := sweep.Map(1, 1, sweep.Policy{}, func(int) (uint64, error) { return warmMeasure(s, src) })
	if len(errs) != 1 || !errors.Is(errs[0].Err, fault.ErrPointPanic) {
		t.Fatalf("feed %+d: failures %v, want the point failed with a recovered panic", mode, errs)
	}
	return trackersOf(s)
}

// TestFeedInvalidOpsStopsRun: a design that emits an invalid op list
// at reference 3 stops every runner with fault.ErrInvalidOps while the
// producer is still far ahead of it, and closing the stepper leaves no
// producer behind and no stepper counted. The functional runners' row
// trackers hold the two valid outcomes' ops, as without the feed.
func TestFeedInvalidOpsStopsRun(t *testing.T) {
	gen := func() memtrace.Source { return testutil.SynthTrace(t, synth.WebSearch, 1, 1.0/16) }
	functional := func(mode int) (warm, measure trackerStats) {
		withFeed(t, mode)
		s := NewSimState(&badAtThird{})
		mustInvalidOps(t, "Warm", s.Warm(gen(), 100_000))
		warm = trackersOf(s)
		s = NewSimState(&badAtThird{})
		_, err := s.Measure(gen(), 0)
		mustInvalidOps(t, "Measure drain", err)
		return warm, trackersOf(s)
	}
	offWarm, offMeasure := functional(-1)
	withFeed(t, 1)
	base := runtime.NumGoroutine()
	onWarm, onMeasure := functional(1)
	if onWarm != offWarm || onMeasure != offMeasure || onWarm.offChipBursts() != 2 {
		t.Errorf("row trackers after the invalid outcome: feed on %+v and %+v, off %+v and %+v, want 2 off-chip bursts each",
			onWarm, onMeasure, offWarm, offMeasure)
	}
	_, err := RunTiming(&badAtThird{}, gen(), TimingConfig{Cores: 4, MLP: 2, WarmupRefs: 100_000, MaxRefs: 100_000})
	mustInvalidOps(t, "RunTiming warmup", err)
	_, err = RunTiming(&badAtThird{}, gen(), TimingConfig{Cores: 4, MLP: 2, MaxRefs: 100_000})
	mustInvalidOps(t, "RunTiming demux", err)
	waitNoFeed(t, "invalid ops", base)
}

// gatedSource serves its first n records, then blocks in Next until
// gate closes.
type gatedSource struct {
	src  memtrace.Source
	n    int
	gate chan struct{}
}

func (g *gatedSource) Next() (memtrace.Record, bool) {
	if g.n == 0 {
		<-g.gate
	}
	g.n--
	return g.src.Next()
}

// TestFeedCloseWaitsForProducer: a run that stops early returns only
// once its producer has left the source, even when the producer is
// blocked inside the source's Next, so the caller owns the source
// again when the run returns.
func TestFeedCloseWaitsForProducer(t *testing.T) {
	withFeed(t, 1)
	src := &gatedSource{src: testutil.SynthTrace(t, synth.WebSearch, 1, 1.0/16), n: feedBatchLen + 10, gate: make(chan struct{})}
	done := make(chan error)
	go func() { done <- NewSimState(&badAtThird{}).Warm(src, 100_000) }()
	select {
	case err := <-done:
		t.Fatalf("Warm returned (%v) while its producer was still inside the source", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(src.gate)
	mustInvalidOps(t, "Warm", <-done)
}

// TestFeedCorruptTrace: a corrupt v2 trace replayed through the feed
// fails with fault.ErrCorruptTrace after the same records as without
// it.
func TestFeedCorruptTrace(t *testing.T) {
	var file bytes.Buffer
	w := memtrace.NewWriterV2(&file)
	if err := w.SetChunkRecords(4_096); err != nil {
		t.Fatal(err)
	}
	for _, rec := range memtrace.Collect(testutil.SynthTrace(t, synth.WebSearch, 1, 1.0/16), 40_000) {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := file.Bytes()
	data[len(data)/2] ^= 0xFF

	replay := func(mode int) FunctionalResult {
		withFeed(t, mode)
		tr := memtrace.NewReader(bytes.NewReader(data))
		res := mustFunctional(NewSimState(&dcache.Baseline{}).Measure(tr, 0))
		if !errors.Is(tr.Err(), fault.ErrCorruptTrace) {
			t.Fatalf("feed %+d: replay error %v, want fault.ErrCorruptTrace", mode, tr.Err())
		}
		return res
	}
	off, on := replay(-1), replay(1)
	if !reflect.DeepEqual(off, on) {
		t.Errorf("corrupt trace replays differ\nfeed off: %s\nfeed on:  %s", testutil.AsJSON(t, off), testutil.AsJSON(t, on))
	}
	if bursts := off.OffChip.ReadBursts + off.OffChip.WriteBursts; off.Refs == 0 || off.Refs >= 40_000 || bursts != off.Refs {
		t.Errorf("corrupt trace stopped after %d records with %d off-chip bursts; want a failure mid-file, one burst per record", off.Refs, bursts)
	}
}

// BenchmarkFeedBudget measures where the feed starts to pay: one warm
// footprint design steps one trace in runs of each budget, with the
// feed forced off and on. The ns/ref of the two sides set feedMinRefs.
//
//	go test -run '^$' -bench FeedBudget -count 4 ./internal/system
func BenchmarkFeedBudget(b *testing.B) {
	for _, budget := range []int{1, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10} {
		for _, mode := range []int{-1, 1} {
			b.Run(fmt.Sprintf("refs=%d/feed=%+d", budget, mode), func(b *testing.B) {
				d, err := BuildDesign(DesignSpec{Kind: KindFootprint, PaperCapacityMB: 256, Scale: 1.0 / 16})
				if err != nil {
					b.Fatal(err)
				}
				s := NewSimState(d)
				src := testutil.SynthTrace(b, synth.WebSearch, 1, 1.0/16)
				mustFunctional(s.Measure(src, 200_000))
				prev := feedOverride
				feedOverride = mode
				defer func() { feedOverride = prev }()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mustFunctional(s.Measure(src, budget))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*budget), "ns/ref")
			})
		}
	}
}
