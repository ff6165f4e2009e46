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
//
// A timing run's demux moves further: its producer steps the stepper
// itself (stepFeed), and the ring carries outcomes instead of records.
const (
	// feedMinRefs is the smallest budget that gains from a producer
	// goroutine. Drains always qualify. A SimState's first feed costs
	// 85-105 µs to start, most of it allocating the buffers; each later
	// one reuses them and costs 3-4 µs (the goroutine and waking an
	// idle P). In BenchmarkFeedBudget on a 2-vCPU Xeon, which reuses
	// one SimState, with the trackers on the producer, a run of 4k
	// records is 10-40% slower with the feed, one of 8k between 7%
	// slower and 11% faster, one of 16k about 24% faster, and one of
	// 32k about 25% faster.
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

// slot is what a ring's slots are: a pointer to a batch that reports
// whether it holds anything to hand over.
type slot interface {
	held() bool
}

// ring is the slot exchange both feeds share. Slots circulate through
// two channels: the producer takes a slot from empty, fills it, and
// sends it on full; the consumer receives each slot from full and
// returns it to empty. Both channels hold every slot, so neither
// handoff ever waits for room. The producer closes full when it is
// done, or after recovering a panic, which it leaves in panicked, with
// the stack of the goroutine that panicked, for the consumer to raise
// again on its own goroutine.
type ring[S slot] struct {
	full, empty chan S
	stop        chan struct{} // closed by close: the producer quits
	exited      chan struct{} // closed by the producer on its way out

	// panicked is written by the producer before it closes full and
	// read by the consumer only after seeing full closed.
	panicked *sweep.ForwardedPanic
}

// start puts every slot in empty and runs produce on a new goroutine.
// produce keeps the slot it is filling in *cur, so that a panic hands
// over what the slot holds before it is raised again.
func (r *ring[S]) start(slots []S, produce func(cur *S)) {
	r.full = make(chan S, len(slots))
	r.empty = make(chan S, len(slots))
	r.stop = make(chan struct{})
	r.exited = make(chan struct{})
	r.panicked = nil
	for _, s := range slots {
		r.empty <- s
	}
	go r.run(produce)
}

// run is the producer goroutine.
func (r *ring[S]) run(produce func(cur *S)) {
	defer close(r.exited)
	var cur S
	defer func() {
		if p := recover(); p != nil {
			// Hand over what was filled before the panic first, so the
			// consumer steps it before it panics in turn.
			r.panicked = &sweep.ForwardedPanic{Value: p, Stack: string(debug.Stack())}
			if cur.held() {
				r.send(&cur)
			}
		}
		close(r.full)
	}()
	produce(&cur)
}

// take moves a slot from empty into *cur; false when close stopped the
// ring first.
func (r *ring[S]) take(cur *S) bool {
	select {
	case *cur = <-r.empty:
		return true
	case <-r.stop:
		return false
	}
}

// send hands *cur to the consumer and clears it; false when close
// stopped the ring first.
func (r *ring[S]) send(cur *S) bool {
	select {
	case r.full <- *cur:
		var none S
		*cur = none
		return true
	case <-r.stop:
		return false
	}
}

// recv waits for the next filled slot; false once the producer is
// done. It raises the producer's panic, wrapped with its stack, once
// every slot sent before it has been received.
func (r *ring[S]) recv() (S, bool) {
	b, ok := <-r.full
	if !ok && r.panicked != nil {
		panic(r.panicked)
	}
	return b, ok
}

// close stops the producer and waits for it to exit, so no goroutine
// outlives the run and the source is left to the caller.
func (r *ring[S]) close() {
	close(r.stop)
	<-r.exited
}

// feedBatch is one record ring slot: n records the producer filled
// and, on its way back, the tracker ops of the records the consumer
// stepped before returning it.
type feedBatch struct {
	recs [feedBatchLen]memtrace.Record
	n    int
	ops  []trackOp
}

// held implements slot.
func (b *feedBatch) held() bool { return b != nil && b.n > 0 }

// trackOp is the part of a dcache.Op a row tracker reads, in 16 bytes
// instead of 24. An op moves at most one page, so its byte count fits
// an int32.
type trackOp struct {
	addr    memtrace.Addr
	bytes   int32
	write   bool
	offChip bool
}

// feed is the record ring with its consumer side; it implements
// memtrace.Source for the stepper. The consumer copies each slot it
// receives into buf and returns it at once. Reading the records one by
// one straight from the slot would pull every cache line across cores
// in the middle of Design.Access; the bulk copy streams them in one
// go. The returned slot carries, in its ops, the tracker ops the
// consumer collected since its previous refill, and the producer
// replays them on offT and stkT when it takes the slot from empty; a
// feed without trackers carries none. The producer closes the ring
// when it has read the budget, when the source ends, or after
// recovering a panic from the source.
//
// A feed outlives its stepper: a SimState keeps one for all its
// steppers, so its buffers are allocated once, and start readies it
// for the next.
type feed struct {
	ring[*feedBatch]
	// offT and stkT are the row trackers the returned ops replay on,
	// nil in a timing warmup. The producer owns them until it exits;
	// then close replays what is left. They sit apart from buf, i, n
	// and ops, which the consumer writes on every record: a reader of
	// the same cache line would pull it across cores.
	offT, stkT *dram.Tracker
	slots      [feedBatches]feedBatch

	buf  [feedBatchLen]memtrace.Record
	i, n int
	// ops collects the ops of the records stepped since the last
	// refill.
	ops []trackOp
}

// start readies f for a new stepper and starts a producer reading up
// to budget records of src and replaying the returned ops on offT and
// stkT (nil for none). Every buffer is f's own from an earlier start,
// or allocated now.
func (f *feed) start(src memtrace.Source, budget uint64, offT, stkT *dram.Tracker) {
	f.offT, f.stkT = offT, stkT
	f.i, f.n = 0, 0
	if offT != nil && f.ops == nil {
		f.ops = make([]trackOp, 0, feedOpsCap)
	}
	f.ops = f.ops[:0]
	var slots [feedBatches]*feedBatch
	for i := range f.slots {
		b := &f.slots[i]
		if offT != nil && b.ops == nil {
			b.ops = make([]trackOp, 0, feedOpsCap)
		}
		b.ops = b.ops[:0]
		slots[i] = b
	}
	f.ring.start(slots[:], func(cur **feedBatch) { f.produce(src, budget, cur) })
}

// produce fills ring slots from src until the budget is read, the
// source ends, or close stops it.
func (f *feed) produce(src memtrace.Source, budget uint64, cur **feedBatch) {
	for budget > 0 && f.take(cur) {
		b := *cur
		b.n = 0
		b.ops = f.replay(b.ops)
		want := min(budget, feedBatchLen)
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
		if b.n > 0 && !f.send(cur) || ended {
			return
		}
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
	b, ok := f.recv()
	if !ok {
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

// close stops the producer and waits for it to exit. Then it replays
// the ops the producer did not: those of the slots still in empty, in
// the order they were returned, and last the consumer's own, so the
// trackers end the run as an inline replay leaves them.
func (f *feed) close() {
	f.ring.close()
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

// stepBatch is one slot of a timing run's outcome ring: n stepped
// records, each with its tag lead time and op count, their ops back to
// back in step order, and a mark on each step that resized.
type stepBatch struct {
	steps [feedBatchLen]queuedRec
	n     int
	// ops holds each step's ops and, right after a marked step's, its
	// transition's.
	ops   []dcache.Op
	marks []stepMark
	// err is the error stepping stopped on after the batch's last
	// step, nil while it goes on. errAtLast says the last step raised
	// it (a rejected transition), so the demux stops once that step is
	// queued; otherwise (an invalid outcome) it stops on the next drain.
	err       error
	errAtLast bool
}

// held implements slot.
func (b *stepBatch) held() bool { return b != nil && (b.n > 0 || b.err != nil) }

// stepMark marks the step at index at, whose resize transition's nops
// ops follow its own.
type stepMark struct {
	at, nops int32
}

// add appends st's last step.
func (b *stepBatch) add(st *stepper) {
	b.steps[b.n] = queuedRec{rec: st.rec, tagCycles: int32(st.out.TagCycles), nops: int32(len(st.out.Ops))}
	b.ops = append(b.ops, st.out.Ops...)
	if st.resized {
		b.marks = append(b.marks, stepMark{at: int32(b.n), nops: int32(len(st.trans))})
		b.ops = append(b.ops, st.trans...)
	}
	b.n++
}

// step is one stepped record as the demux queues it: the record with
// its tag lead time and op count, its ops, and, when resized, its
// resize transition's ops. err, when set, stopped stepping: after this
// step if it was returned, before it if not.
type step struct {
	rec     queuedRec
	ops     []dcache.Op
	resized bool
	trans   []dcache.Op
	err     error
}

// stepFeed runs a timing run's stepper on a producer goroutine: src's
// Next, Design.Access, outcome validation and the resize epochs all
// run there, in trace order, and the ring carries the outcomes. The
// consumer copies each slot it receives into batch in one go and
// returns it at once, as the record feed does, then reads the steps
// from its copy (next) as the demux drains them. The steps take 32 KB
// per slot and in batch; each slot's ops and the batch's grow to the
// most a batch has held, transitions included, and stay grown.
type stepFeed struct {
	ring[*stepBatch]
	slots [feedBatches]stepBatch

	batch stepBatch
	// i, oi and mi are the next step, op and mark of batch to read.
	i, oi, mi int
}

// startStepFeed starts a producer stepping st, which the producer owns
// until close returns.
func startStepFeed(st *stepper) *stepFeed {
	f := new(stepFeed)
	var slots [feedBatches]*stepBatch
	for i := range f.slots {
		slots[i] = &f.slots[i]
	}
	f.start(slots[:], func(cur **stepBatch) { f.produce(st, cur) })
	return f
}

// produce steps st into ring slots until stepping stops or close stops
// it.
func (f *stepFeed) produce(st *stepper, cur **stepBatch) {
	for f.take(cur) {
		b := *cur
		b.n, b.ops, b.marks, b.err, b.errAtLast = 0, b.ops[:0], b.marks[:0], nil, false
		for b.n < feedBatchLen && st.next() {
			b.add(st)
			if st.err != nil {
				b.errAtLast = true
				break
			}
		}
		b.err = st.err
		done := b.n < feedBatchLen || b.err != nil
		if b.held() && !f.send(cur) || done {
			return
		}
	}
}

// next reads the next step into s; false once stepping has stopped,
// with s.err saying why (nil when the budget or the source ran out).
// s's ops alias the consumer's batch until the next refill.
//
//fplint:hotpath
func (f *stepFeed) next(s *step) bool {
	b := &f.batch
	if f.i == b.n && !f.refill() {
		s.err = b.err
		return false
	}
	s.rec = b.steps[f.i]
	s.ops = b.ops[f.oi : f.oi+int(s.rec.nops)]
	f.oi += int(s.rec.nops)
	s.resized, s.err = false, nil
	if f.mi < len(b.marks) && int(b.marks[f.mi].at) == f.i {
		nops := int(b.marks[f.mi].nops)
		f.mi++
		s.resized, s.trans = true, b.ops[f.oi:f.oi+nops]
		f.oi += nops
	}
	if b.errAtLast && f.i == b.n-1 {
		s.err = b.err
	}
	f.i++
	return true
}

// refill copies the next filled slot into batch and hands it back;
// false when the producer is done, which it is once it has sent a
// slot with an error. It raises the producer's panic, wrapped with its
// stack, once the steps before it are read.
func (f *stepFeed) refill() bool {
	b, ok := f.recv()
	if !ok {
		return false
	}
	f.batch.n = copy(f.batch.steps[:], b.steps[:b.n])
	f.batch.ops = append(f.batch.ops[:0], b.ops...)
	f.batch.marks = append(f.batch.marks[:0], b.marks...)
	f.batch.err, f.batch.errAtLast = b.err, b.errAtLast
	f.i, f.oi, f.mi = 0, 0, 0
	f.empty <- b // never blocks: empty has room for every slot
	return f.batch.n > 0
}
