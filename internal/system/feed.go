package system

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"fpcache/internal/dcache"
	"fpcache/internal/dram"
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
//
// The ring runs both ways. A functional run's row trackers only
// consume ops, so the consumer does not replay them itself: it hands
// each step's ops back with the slot it returns, and the producer
// replays them on the trackers before it refills the slot. Slots come
// back through one channel in the order they were returned, so the
// trackers see the same op sequence as an inline replay.
const (
	// feedMinRefs is the smallest budget that gains from a producer
	// goroutine. Drains always qualify. Starting a functional run's
	// feed costs 80-105 µs (the ring, the return buffers, the
	// goroutine, waking an idle P), and in BenchmarkFeedBudget on a
	// 2-vCPU Xeon, with the trackers on the producer, a run of 4k
	// records is 16-34% slower with the feed, one of 8k between 3%
	// slower and 7% faster, one of 16k 9-19% faster, and one of 32k
	// 20-27% faster.
	feedMinRefs = 8 << 10
	// feedBatchLen records per ring slot, feedBatches slots per feed:
	// a 96 KB ring, one channel handoff per side per batch, plus the
	// consumer's 24 KB copy of the batch it is reading.
	feedBatchLen = 1024
	feedBatches  = 4
	// feedOpsCap is the starting capacity of each return buffer, one
	// per slot plus the consumer's, allocated only when the feed has
	// trackers: 1.5 ops per record (24 KB), against the 1.1 a
	// functional footprint run averages. A batch with more ops grows
	// its buffer, which then stays grown for the run.
	feedOpsCap = 3 * feedBatchLen / 2
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

// feedBatch is one ring slot: n records the producer filled and, on
// its way back, the tracker ops of the records the consumer stepped
// before returning it.
type feedBatch struct {
	recs [feedBatchLen]memtrace.Record
	n    int
	ops  []trackOp
}

// trackOp is the part of a dcache.Op a row tracker reads, in 16 bytes
// instead of 24. An op moves at most one page, so its byte count fits
// an int32.
type trackOp struct {
	addr    memtrace.Addr
	bytes   int32
	write   bool
	offChip bool
}

// feed is the consumer side of the ring; it implements memtrace.Source
// for the stepper. Slots circulate through two channels: the producer
// takes a slot from empty, fills it, and sends it on full; the consumer
// copies each slot it receives into buf and returns it to empty at
// once. Reading the records one by one straight from the slot would
// pull every cache line across cores in the middle of Design.Access;
// the bulk copy streams them in one go. The returned slot carries, in
// its ops, the tracker ops the consumer collected since its previous
// refill, and the producer replays them on offT and stkT when it takes
// the slot from empty; a feed without trackers carries none. The
// producer closes full when it has read the budget, when the source
// ends, or after recovering a panic from the source, which it leaves
// in panicked, with the stack of the goroutine that panicked, for the
// consumer to raise again on its own goroutine.
type feed struct {
	full, empty chan *feedBatch
	stop        chan struct{} // closed by close: the producer quits
	exited      chan struct{} // closed by the producer on its way out
	// offT and stkT are the row trackers the returned ops replay on,
	// nil in a timing run. The producer owns them until it exits; then
	// close replays what is left. They sit with the fields neither side
	// writes: the consumer writes the fields below on every record, and
	// a reader of the same cache line would pull it across cores.
	offT, stkT *dram.Tracker

	buf  [feedBatchLen]memtrace.Record
	i, n int
	// ops collects the ops of the records stepped since the last
	// refill.
	ops []trackOp

	// panicked is written by the producer before it closes full and
	// read by the consumer only after seeing full closed.
	panicked *sweep.ForwardedPanic
}

// newFeed starts a producer reading up to budget records of src and
// replaying the returned ops on offT and stkT (nil for none).
func newFeed(src memtrace.Source, budget uint64, offT, stkT *dram.Tracker) *feed {
	// Both channels hold every slot, so neither handoff ever waits
	// for room.
	f := &feed{
		full:   make(chan *feedBatch, feedBatches),
		empty:  make(chan *feedBatch, feedBatches),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
		offT:   offT,
		stkT:   stkT,
	}
	if offT != nil {
		f.ops = make([]trackOp, 0, feedOpsCap)
	}
	ring := make([]feedBatch, feedBatches)
	for i := range ring {
		if offT != nil {
			ring[i].ops = make([]trackOp, 0, feedOpsCap)
		}
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
			b.ops = f.replay(b.ops)
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
	// The producer emptied b.ops when it took the slot, so the
	// consumer collects into that buffer next.
	b.ops, f.ops = f.ops, b.ops
	f.empty <- b // never blocks: empty has room for every slot
	return true
}

// keep queues a step's ops for the producer to replay.
//
//fplint:hotpath
func (f *feed) keep(ops []dcache.Op) {
	kept := f.ops
	for i := range ops {
		op := &ops[i]
		kept = append(kept, trackOp{addr: op.Addr, bytes: int32(op.Bytes), write: op.Write, offChip: op.Level == dcache.OffChip})
	}
	f.ops = kept
}

// replay applies ops to the trackers in order and returns the buffer
// emptied.
func (f *feed) replay(ops []trackOp) []trackOp {
	offT, stkT := f.offT, f.stkT
	for _, op := range ops {
		t := stkT
		if op.offChip {
			t = offT
		}
		t.Access(op.addr, int(op.bytes), op.write)
	}
	return ops[:0]
}

// close stops the producer and waits for it to exit, so no goroutine
// outlives the run and the source is left to the caller. Then it
// replays the ops the producer did not: those of the slots still in
// empty, in the order they were returned, and last the consumer's own,
// so the trackers end the run as an inline replay leaves them.
func (f *feed) close() {
	close(f.stop)
	<-f.exited
	for {
		select {
		case b := <-f.empty:
			b.ops = f.replay(b.ops)
		default:
			f.ops = f.replay(f.ops)
			return
		}
	}
}
