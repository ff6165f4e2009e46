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

// timingOutcome is what a feed test compares of one RunTiming: its
// result, its error's message, and how many records the design
// stepped, which places the stop.
type timingOutcome struct {
	Result  TimingResult
	Err     string
	Stepped uint64
}

// runTimingOn runs RunTiming on a fresh design from build and returns
// its outcome. It fails the test unless the run's error wraps want, or,
// with want nil, unless the run returns no error: a producer that
// re-formatted the error would lose the sentinel fault.ClassOf reads.
func runTimingOn(t *testing.T, build func() dcache.Design, src memtrace.Source, cfg TimingConfig, want error) timingOutcome {
	t.Helper()
	d := build()
	res, err := RunTiming(d, src, cfg)
	if !errors.Is(err, want) {
		t.Errorf("RunTiming returned %v, want an error wrapping %v", err, want)
	}
	return timingOutcome{Result: res, Err: fmt.Sprint(err), Stepped: d.Counters().Accesses()}
}

// timingFeedParity runs a timing point with the feed forced off, then
// forced on, and fails unless both give the same outcome and the run
// with the feed on leaves no producer behind. It returns the outcome.
func timingFeedParity(t *testing.T, what string, run func() timingOutcome) timingOutcome {
	t.Helper()
	withFeed(t, -1)
	off := run()
	withFeed(t, 1)
	base := runtime.NumGoroutine()
	on := run()
	waitNoFeed(t, what, base)
	if !reflect.DeepEqual(off, on) {
		t.Errorf("%s: timing outcomes differ\nfeed off: %s\nfeed on:  %s", what, testutil.AsJSON(t, off), testutil.AsJSON(t, on))
	}
	return off
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
	st, piped := newStepper(&dcache.Baseline{}, testutil.RandomTrace(10, 1, 1), 5, nil, nil, nil, nil)
	if !piped {
		t.Error("forced-on hook left a stepper without a producer")
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
// feed. A timing point fails the same way, after the same records,
// when the panic reaches the demux's stepping producer.
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

	// The same point in timing mode panics in the demux's stepping, on
	// the producer when the feed is on: its warmup reads 2,000 records
	// and the demux the next 500.
	timingFeedParity(t, "panicking source, timing", func() timingOutcome {
		d := &dcache.Baseline{}
		_, errs := sweep.Map(1, 1, sweep.Policy{}, func(int) (TimingResult, error) {
			src := &panickingSource{src: testutil.SynthTrace(t, synth.WebSearch, 1, 1.0/16), n: 2_500}
			return RunTiming(d, src, TimingConfig{Cores: 4, MLP: 2, WarmupRefs: 2_000, MaxRefs: 4_000})
		})
		var pe *sweep.PanicError
		if len(errs) != 1 || !errors.As(errs[0].Err, &pe) || pe.Value != "trace source failed" {
			t.Fatalf("timing point failures %v, want the source's own panic recovered", errs)
		}
		if !strings.Contains(pe.Stack, "(*panickingSource).Next") {
			t.Errorf("timing failure's stack does not name the source that panicked:\n%s", pe.Stack)
		}
		if n := d.Counters().Accesses(); n != 2_500 {
			t.Errorf("the failing timing point stepped %d records before the panic, want 2500", n)
		}
		return timingOutcome{Err: fmt.Sprint(pe.Value), Stepped: d.Counters().Accesses()}
	})
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
// RunTiming, in its warmup, in its demux and on a rejected resize
// transition, stops at the same record with the same result and error
// whether the demux steps inline or on its producer.
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
	waitNoFeed(t, "invalid ops", base)

	// An invalid outcome stops stepping before its record; a rejected
	// resize transition stops it as soon as its boundary record is
	// queued. The boundary falls on the last step of a ring slot, then
	// mid-slot. With one core, every record is the one the core was
	// pulling for, so a stop raised one step early or late would change
	// how many records it issued: all before the rejected boundary, and
	// not the boundary itself.
	resizeAt := func(period, cores int) TimingConfig {
		return TimingConfig{Cores: cores, MLP: 2, MaxRefs: 100_000, Resize: &ResizePlan{PeriodRefs: period, Fractions: []float64{0.5}}}
	}
	badOutcome := func() dcache.Design { return &badAtThird{} }
	badTransition := func() dcache.Design { return &badResizable{} }
	for _, tc := range []struct {
		what      string
		build     func() dcache.Design
		cfg       TimingConfig
		stop      string
		stepped   uint64
		oneCoreOf uint64 // records one core issues, 0 when not checked
	}{
		{"RunTiming warmup", badOutcome, TimingConfig{Cores: 4, MLP: 2, WarmupRefs: 100_000, MaxRefs: 100_000}, "outcome", 2, 0},
		{"RunTiming demux", badOutcome, TimingConfig{Cores: 4, MLP: 2, MaxRefs: 100_000}, "outcome", 2, 0},
		{"RunTiming demux, one core", badOutcome, TimingConfig{Cores: 1, MLP: 2, MaxRefs: 100_000}, "outcome", 2, 2},
		{"transition at a slot's end", badTransition, resizeAt(feedBatchLen, 4), "resize transition", feedBatchLen, 0},
		{"transition at a slot's end, one core", badTransition, resizeAt(feedBatchLen, 1), "resize transition", feedBatchLen, feedBatchLen - 1},
		{"transition mid-slot, one core", badTransition, resizeAt(1_500, 1), "resize transition", 1_500, 1_499},
	} {
		out := timingFeedParity(t, tc.what, func() timingOutcome { return runTimingOn(t, tc.build, gen(), tc.cfg, fault.ErrInvalidOps) })
		if !strings.Contains(out.Err, tc.stop) || out.Stepped != tc.stepped {
			t.Errorf("%s: stopped on %q after %d records, want an invalid %s after %d", tc.what, out.Err, out.Stepped, tc.stop, tc.stepped)
		}
		if tc.oneCoreOf != 0 && out.Result.Refs != tc.oneCoreOf {
			t.Errorf("%s: the core issued %d records, want %d", tc.what, out.Result.Refs, tc.oneCoreOf)
		}
	}
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
// again when the run returns. RunTiming waits the same way, in its
// warmup and in its demux, and then returns what it returns without
// the feed.
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

	// RunTiming's warmup stops early the same way. Its demux never
	// stops before its producer does, so a demux whose producer is
	// inside the source waits for it, and the run then ends as it does
	// without the feed.
	gated := func(open bool) *gatedSource {
		g := &gatedSource{src: testutil.SynthTrace(t, synth.WebSearch, 1, 1.0/16), n: feedBatchLen + 10, gate: make(chan struct{})}
		if open {
			close(g.gate)
		}
		return g
	}
	for _, tc := range []struct {
		what  string
		build func() dcache.Design
		cfg   TimingConfig
		err   error
	}{
		{"RunTiming warmup", func() dcache.Design { return &badAtThird{} }, TimingConfig{Cores: 4, MLP: 2, WarmupRefs: 100_000, MaxRefs: 100_000}, fault.ErrInvalidOps},
		{"RunTiming demux", func() dcache.Design { return &dcache.Baseline{} }, TimingConfig{Cores: 4, MLP: 2, MaxRefs: 3 * feedBatchLen}, nil},
	} {
		want := timingFeedParity(t, tc.what, func() timingOutcome { return runTimingOn(t, tc.build, gated(true), tc.cfg, tc.err) })
		withFeed(t, 1)
		goroutines := runtime.NumGoroutine()
		src := gated(false)
		done := make(chan timingOutcome)
		go func() { done <- runTimingOn(t, tc.build, src, tc.cfg, tc.err) }()
		select {
		case out := <-done:
			t.Fatalf("%s returned (%s) while its producer was still inside the source", tc.what, out.Err)
		case <-time.After(50 * time.Millisecond):
		}
		close(src.gate)
		if got := <-done; !reflect.DeepEqual(got, want) {
			t.Errorf("%s after the source blocked: %s, want %s", tc.what, testutil.AsJSON(t, got), testutil.AsJSON(t, want))
		}
		waitNoFeed(t, tc.what, goroutines)
	}
}

// TestFeedCorruptTrace: a corrupt v2 trace replayed through the feed
// fails with fault.ErrCorruptTrace after the same records as without
// it, in a functional and in a timing run.
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

	tm := timingFeedParity(t, "corrupt trace, timing", func() timingOutcome {
		tr := memtrace.NewReader(bytes.NewReader(data))
		out := runTimingOn(t, func() dcache.Design { return &dcache.Baseline{} }, tr, TimingConfig{Cores: 4, MLP: 2, WarmupRefs: 1_000}, nil)
		if !errors.Is(tr.Err(), fault.ErrCorruptTrace) {
			t.Fatalf("timing replay error %v, want fault.ErrCorruptTrace", tr.Err())
		}
		return out
	})
	if tm.Stepped != off.Refs || tm.Result.Refs != off.Refs-1_000 {
		t.Errorf("corrupt trace in timing mode stepped %d records and timed %d (%s); want the functional replay's %d, 1000 of them warmup",
			tm.Stepped, tm.Result.Refs, tm.Err, off.Refs)
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
