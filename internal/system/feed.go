package system

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"fpcache/internal/memtrace"
	"fpcache/internal/sweep"
)

// The record feed overlaps trace generation with simulation. A long
// run's stepper reads its records from a producer goroutine that calls
// the source's Next for exactly the stepper's budget and hands the
// records over in a fixed ring of batches, so while one goroutine
// runs Design.Access another generates (or decodes) the records that
// follow. One goroutine still reads the source, in order, so every
// record, and with it every row, is the same as without the feed.
const (
	// feedMinRefs is the smallest budget that gains from a producer
	// goroutine. Drains always qualify. Starting a feed costs 45-65
	// µs (the ring, the goroutine, waking an idle P), and in
	// BenchmarkFeedBudget on a 2-vCPU Xeon a run of 4k records is
	// 18-25% slower with the feed, one of 8k 4-12% faster, and one of
	// 16k about 13% faster.
	feedMinRefs = 8 << 10
	// feedBatchLen records per ring slot, feedBatches slots per feed:
	// a 96 KB ring, one channel handoff per side per batch, plus the
	// consumer's 24 KB copy of the batch it is reading.
	feedBatchLen = 1024
	feedBatches  = 4
)

// runningSteppers counts the steppers alive in the process. A stepper
// with a budget of at least feedMinRefs pipelines only if, when it is
// built, twice that count fits in GOMAXPROCS. The gate is not sampled
// again: a stepper that starts while a P is idle keeps its producer
// for its whole run, even once other steppers fill every P. While a
// sweep's workers are all stepping, the points they start run without
// one.
var runningSteppers atomic.Int64

// feedOverride forces the feed on (+1) or off (-1) for every stepper,
// whatever its budget and the idle-P gate say. Tests only; 0 lets the
// gate decide.
var feedOverride int

// wantFeed reports whether a stepper with the given record budget,
// built as one of running live steppers, reads through a feed.
func wantFeed(budget uint64, running int64) bool {
	switch {
	case feedOverride > 0:
		return true
	case feedOverride < 0:
		return false
	}
	return budget >= feedMinRefs && 2*running <= int64(runtime.GOMAXPROCS(0))
}

// feedBatch is one ring slot: n records the producer filled.
type feedBatch struct {
	recs [feedBatchLen]memtrace.Record
	n    int
}

// feed is the consumer side of the ring; it implements memtrace.Source
// for the stepper. Slots circulate through two channels: the producer
// takes a slot from empty, fills it, and sends it on full; the consumer
// copies each slot it receives into buf and returns it to empty at
// once. Reading the records one by one straight from the slot would
// pull every cache line across cores in the middle of Design.Access;
// the bulk copy streams them in one go. The producer closes full when
// it has read the budget, when the source ends, or after recovering a
// panic from the source, which it leaves in panicked, with the stack
// of the goroutine that panicked, for the consumer to raise again on
// its own goroutine.
type feed struct {
	full, empty chan *feedBatch
	stop        chan struct{} // closed by close: the producer quits
	exited      chan struct{} // closed by the producer on its way out

	buf  [feedBatchLen]memtrace.Record
	i, n int

	// panicked is written by the producer before it closes full and
	// read by the consumer only after seeing full closed.
	panicked *sweep.ForwardedPanic
}

// newFeed starts a producer reading up to budget records of src.
func newFeed(src memtrace.Source, budget uint64) *feed {
	// Both channels hold every slot, so neither handoff ever waits
	// for room.
	f := &feed{
		full:   make(chan *feedBatch, feedBatches),
		empty:  make(chan *feedBatch, feedBatches),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	ring := make([]feedBatch, feedBatches)
	for i := range ring {
		f.empty <- &ring[i]
	}
	go f.produce(src, budget)
	return f
}

// produce fills ring slots from src until the budget is read, the
// source ends, or close stops it.
func (f *feed) produce(src memtrace.Source, budget uint64) {
	defer close(f.exited)
	var b *feedBatch
	defer func() {
		if p := recover(); p != nil {
			// Hand over the records read before the panic first, so
			// the consumer steps them before it panics in turn.
			f.panicked = &sweep.ForwardedPanic{Value: p, Stack: string(debug.Stack())}
			if b != nil && b.n > 0 {
				f.send(b)
			}
		}
		close(f.full)
	}()
	for budget > 0 {
		select {
		case b = <-f.empty:
		case <-f.stop:
			return
		}
		want := min(budget, feedBatchLen)
		b.n = 0
		for uint64(b.n) < want {
			rec, ok := src.Next()
			if !ok {
				break
			}
			b.recs[b.n] = rec
			b.n++
		}
		budget -= uint64(b.n)
		ended := uint64(b.n) < want
		if b.n > 0 && !f.send(b) || ended {
			return
		}
		b = nil
	}
}

// send hands a filled slot to the consumer; false when close stopped
// the feed first.
func (f *feed) send(b *feedBatch) bool {
	select {
	case f.full <- b:
		return true
	case <-f.stop:
		return false
	}
}

// Next implements memtrace.Source.
//
//fplint:hotpath
func (f *feed) Next() (memtrace.Record, bool) {
	if f.i == f.n && !f.refill() {
		return memtrace.Record{}, false
	}
	f.i++
	return f.buf[f.i-1], true
}

// refill waits for the next filled slot, copies it into buf and hands
// it back. It raises the source's panic, wrapped with the producer's
// stack, once the records before it are read.
func (f *feed) refill() bool {
	b, ok := <-f.full
	if !ok {
		if f.panicked != nil {
			panic(f.panicked)
		}
		return false
	}
	f.i, f.n = 0, copy(f.buf[:], b.recs[:b.n])
	f.empty <- b // never blocks: empty has room for every slot
	return true
}

// close stops the producer and waits for it to exit, so no goroutine
// outlives the run and the source is left to the caller.
func (f *feed) close() {
	close(f.stop)
	<-f.exited
}
