package system

import (
	"fpcache/internal/cpu"
	"fpcache/internal/dcache"
	"fpcache/internal/dram"
	"fpcache/internal/energy"
	"fpcache/internal/memtrace"
	"fpcache/internal/sim"
	"fpcache/internal/stats"
)

// TimingConfig parametrizes an event-driven pod simulation.
type TimingConfig struct {
	Cores int
	// MLP is the per-core outstanding-read budget.
	MLP int
	// L2Cycles is the L2 hit latency paid by every record before the
	// DRAM cache tag lookup (Table 3: 13 cycles).
	L2Cycles int
	// WarmupRefs records are replayed through the design functionally
	// before timed simulation starts, mirroring the paper's warmed
	// checkpoints (§5.4).
	WarmupRefs int
	// MaxRefs bounds the timed trace length; 0 takes the default
	// (250_000, matching experiments.Options.TimingRefs at its
	// defaults) rather than simulating nothing.
	MaxRefs int
	// OffChip / Stacked override the per-design DRAM configs when
	// non-nil (used by the Figure 1 opportunity study).
	OffChip, Stacked *dram.Config
	// Resize decides run-time partition resizes (a static *ResizePlan
	// or the adaptive AdaptivePolicy). Driven by the demux's stepper
	// in trace order — the same measured-reference epoch boundaries,
	// with the same cumulative telemetry, RunFunctionalResized uses —
	// so counters stay byte-identical to a functional run; the
	// transition's DRAM operations dispatch into the controllers as
	// background traffic at the cycle the boundary reference is
	// drained.
	Resize ResizePolicy
}

// TimingResult summarizes a timing run.
type TimingResult struct {
	Design       string
	Refs         uint64
	Instructions uint64
	Cycles       uint64
	Counters     dcache.Counters
	OffChip      dram.Stats
	Stacked      dram.Stats
	// AvgReadLatency is the mean latency of read records from issue
	// to completion, in CPU cycles.
	AvgReadLatency float64
	// ReadLatency is the full read-record latency distribution (issue
	// to completion, CPU cycles) behind the percentile fields.
	ReadLatency *stats.Histogram `json:"-"`
	// ReadLatencyP50/P90/P99 are percentiles of the read-record
	// latency distribution, interpolated from ReadLatency.
	ReadLatencyP50 float64
	ReadLatencyP90 float64
	ReadLatencyP99 float64
	// StallCycles sums per-core full-window stalls.
	StallCycles uint64
	// QueueHighWater is the run's high-water mark of records buffered
	// across the demux's per-core queues. Pinning functional state
	// transitions to trace order means a core-skewed trace buffers the
	// skew (each queued record and its ops held in its core's queue
	// chunks, which the chunks a run allocates follow); this reports
	// that memory cost instead of leaving it unmeasured.
	QueueHighWater uint64
	// Partition carries partition statistics when the design
	// partitions its stacked capacity, nil otherwise.
	Partition *dcache.PartitionStats
}

// AggIPC is the paper's throughput metric (§5.4): aggregate committed
// instructions over total cycles.
func (r TimingResult) AggIPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// OffChipEnergyPerInstr returns the off-chip dynamic energy per
// instruction (Figure 10's metric).
func (r TimingResult) OffChipEnergyPerInstr() energy.Breakdown {
	return energy.OffChip().Of(r.OffChip).PerInstruction(r.Instructions)
}

// StackedEnergyPerInstr returns the stacked dynamic energy per
// instruction (Figure 11's metric).
func (r TimingResult) StackedEnergyPerInstr() energy.Breakdown {
	return energy.Stacked().Of(r.Stacked).PerInstruction(r.Instructions)
}

// queuedRec is one record waiting in a core's queue: the record, its
// SRAM tag lead time, and how many ops it holds in its chunk.
type queuedRec struct {
	rec       memtrace.Record
	tagCycles int32
	nops      int32
}

// Chunk capacities: a chunk takes chunkRecs records or chunkOps ops,
// whichever fills first, and a record with more than chunkOps ops gets
// a chunk of its own size. Small chunks go back to the pool soon after
// they fill, so pushes mostly write to memory that is still cached.
const (
	chunkRecs = 64
	chunkOps  = 4 * chunkRecs
)

// qchunk is one block of a core queue: records and their ops back to
// back, appended at the tail and read from rhead/ohead.
type qchunk struct {
	recs         []queuedRec
	ops          []dcache.Op
	rhead, ohead int
	next         *qchunk
}

// chunkPool is a demux's free list of standard-size chunks, shared by
// its core queues, so the chunks a run allocates follow the high-water
// mark of records queued across all cores rather than the run length.
type chunkPool struct {
	free *qchunk
	// made counts the chunks allocated, for tests.
	made int
}

// get returns an empty chunk with room for at least nops ops.
func (p *chunkPool) get(nops int) *qchunk {
	if nops > chunkOps {
		p.made++
		return &qchunk{recs: make([]queuedRec, 0, 1), ops: make([]dcache.Op, 0, nops)}
	}
	c := p.free
	if c == nil {
		p.made++
		return &qchunk{recs: make([]queuedRec, 0, chunkRecs), ops: make([]dcache.Op, 0, chunkOps)}
	}
	p.free, c.next = c.next, nil
	return c
}

// put empties a chunk the queue head has passed and returns it to the
// free list; an oversize chunk is left to the garbage collector.
func (p *chunkPool) put(c *qchunk) {
	if cap(c.ops) != chunkOps {
		return
	}
	c.recs, c.ops = c.recs[:0], c.ops[:0]
	c.rhead, c.ohead = 0, 0
	c.next, p.free = p.free, c
}

// coreQueue is one core's FIFO of drained but not yet pulled records:
// a list of chunks from its demux's pool, pushed at the tail and
// popped at the head, so a queued record pins no buffer of its own.
// Popping is split in two so that its fast path inlines into
// demux.pull: pop reads the head chunk, and advance moves past it.
type coreQueue struct {
	head, tail *qchunk
}

// push appends a record and a copy of its ops, starting a new tail
// chunk from pool when either of the current one's arrays is full.
func (q *coreQueue) push(pool *chunkPool, rec memtrace.Record, tagCycles int, ops []dcache.Op) {
	t := q.tail
	if t == nil || len(t.recs) == cap(t.recs) || len(t.ops)+len(ops) > cap(t.ops) {
		t = pool.get(len(ops))
		if q.tail == nil {
			q.head = t
		} else {
			q.tail.next = t
		}
		q.tail = t
	}
	t.recs = append(t.recs, queuedRec{rec: rec, tagCycles: int32(tagCycles), nops: int32(len(ops))})
	t.ops = append(t.ops, ops...)
}

// pop removes the head chunk's next record, and reports false when the
// head chunk has none left: the queue is empty, or advance must move
// on to the next chunk. The ops alias the chunk and stay valid until
// the queue's next advance, which follows only a pop that came back
// empty.
//
//fplint:hotpath
func (q *coreQueue) pop() (queuedRec, []dcache.Op, bool) {
	c := q.head
	if c == nil || c.rhead == len(c.recs) {
		return queuedRec{}, nil, false
	}
	r := c.recs[c.rhead]
	c.rhead++
	ops := c.ops[c.ohead : c.ohead+int(r.nops)]
	c.ohead += int(r.nops)
	return r, ops, true
}

// advance returns the head chunk, which pop has emptied, to pool and
// reports whether another chunk follows it. A queue that runs empty
// therefore holds no chunk until its next push.
//
//fplint:hotpath
func (q *coreQueue) advance(pool *chunkPool) bool {
	c := q.head
	if c == nil {
		return false
	}
	q.head = c.next
	if q.head == nil {
		q.tail = nil
	}
	pool.put(c)
	return q.head != nil
}

// demux fans one interleaved trace out to per-core queues, performing
// the design's functional access in trace order: as records are
// drained from the source, or ahead of the drain on a producer
// goroutine (stepFeed), whose outcomes are queued as they are drained.
// Pinning functional state transitions to
// trace order — rather than the timing-dependent order in which cores
// issue — makes hit/miss counters and traffic independent of
// controller scheduling: a controller rework cannot perturb
// functional results (the scheduling-parity regression test), and the
// counters match RunFunctional byte for byte.
//
// The cost of the decoupling is that queued records hold their ops: a
// trace whose records skew heavily toward one core makes the other
// cores' pulls drain (and functionally evaluate) the remainder of the
// trace up front, buffering every queued record's ops in its core's
// queue chunks. Synthetic workloads interleave cores evenly, but while
// one core stalls on DRAM the others' pulls keep draining the trace
// into its queue: the bench's timing points peak at 17–24 thousand
// queued records across 16 cores. A pathologically skewed replayed
// trace costs memory proportional to the skew, never correctness. The
// queued/highWater counters measure that cost per run
// (TimingResult.QueueHighWater).
type demux struct {
	// st steps on this goroutine when feed is nil. Otherwise feed's
	// producer owns it until close returns, and the demux reads the
	// outcomes from feed. It is allocated apart from the fields below,
	// which the consumer writes on every record.
	st     *stepper
	feed   *stepFeed
	queues []coreQueue
	// pool holds the queues' free chunks.
	pool chunkPool

	// queued is the current total of buffered records across queues;
	// highWater its run maximum.
	queued    int
	highWater int
	// err is the error stepping stopped on, once the demux has drained
	// the step it stopped at.
	err error

	// onResize dispatches a resize transition's ops, which the stepper
	// hands over at the boundary reference's drain.
	onResize func(ops []dcache.Op)
}

// newDemux steps up to n records of src through design for cores
// queues, on a producer goroutine if the idle-P gate gives the stepper
// one. The caller must close the demux.
func newDemux(design dcache.Design, src memtrace.Source, n int, pol ResizePolicy, ops []dcache.Op, cores int, onResize func([]dcache.Op)) *demux {
	st, piped := newStepper(design, src, n, pol, ops, nil, nil)
	d := &demux{st: &st, queues: make([]coreQueue, cores), onResize: onResize}
	if piped {
		d.feed = startStepFeed(d.st)
	}
	return d
}

// close stops the demux's producer, if it has one, and waits for it,
// so the stepper and the design are the caller's again.
func (d *demux) close() {
	if d.feed != nil {
		d.feed.close()
	}
	d.st.close()
}

// pull returns the given core's next record with its precomputed
// outcome; the ops alias the core's queue and stay valid until the
// core's next pull.
func (d *demux) pull(core int) (queuedRec, []dcache.Op, bool) {
	q := &d.queues[core]
	for d.err == nil {
		if r, ops, ok := q.pop(); ok {
			d.queued--
			return r, ops, true
		}
		if q.advance(&d.pool) {
			continue
		}
		if !d.drain() {
			break
		}
	}
	return queuedRec{}, nil, false
}

// drain steps the next record, queues it on its core and dispatches
// its resize transition, if any. It reports false once stepping has
// stopped; d.err then says why, nil when the budget or the source ran
// out. A rejected transition sets d.err once its step is queued.
func (d *demux) drain() bool {
	var s step
	if d.feed != nil {
		if !d.feed.next(&s) {
			d.err = s.err
			return false
		}
	} else {
		st := d.st
		if !st.next() {
			d.err = st.err
			return false
		}
		s = step{
			rec:     queuedRec{rec: st.rec, tagCycles: int32(st.out.TagCycles), nops: int32(len(st.out.Ops))},
			ops:     st.out.Ops,
			resized: st.resized,
			trans:   st.trans,
			err:     st.err,
		}
	}
	rec := s.rec.rec
	d.queues[int(rec.Core)%len(d.queues)].push(&d.pool, rec, int(s.rec.tagCycles), s.ops)
	if d.queued++; d.queued > d.highWater {
		d.highWater = d.queued
	}
	if s.resized {
		d.onResize(s.trans)
	}
	d.err = s.err
	return true
}

// RunTiming executes an event-driven simulation of the pod: cores
// with bounded MLP issue records through the design into the two DRAM
// controllers; critical operations gate request completion while
// fills and evictions consume bandwidth in the background. The
// design's functional transitions happen in trace order (at demux
// drain time), so hit/miss counters and traffic are identical to a
// RunFunctional over the same trace and invariant under controller
// scheduling changes; timing only decides *when* the resulting DRAM
// operations happen.
//
// The returned error is a typed fault (fault.ErrInvalidOps) when the
// design emits a malformed operation list; the demux stops producing
// records, outstanding traffic drains, and the partial result
// accompanies the error for diagnostics only.
func RunTiming(design dcache.Design, src memtrace.Source, cfg TimingConfig) (TimingResult, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 16
	}
	if cfg.MLP <= 0 {
		cfg.MLP = 2
	}
	if cfg.L2Cycles <= 0 {
		cfg.L2Cycles = 13
	}
	if cfg.MaxRefs <= 0 {
		cfg.MaxRefs = 250_000
	}
	offCfg, stkCfg := DRAMConfigsForDesign(design)
	if cfg.OffChip != nil {
		offCfg = *cfg.OffChip
	}
	if cfg.Stacked != nil {
		stkCfg = *cfg.Stacked
	}

	// Functional warmup: bring tags, MissMap, FHT, and ST to steady
	// state before the first timed cycle, discarding the ops. Its
	// Access scratch carries over to the demux.
	ops, err := warmTiming(design, src, cfg.WarmupRefs)
	if err != nil {
		return TimingResult{Design: design.Name()}, err
	}
	// The baselines are read before the demux may start a producer
	// that steps the design, and the totals after close has joined it.
	ctr0 := design.Counters()
	part := partitionExtra(design)
	var pt0 dcache.PartitionStats
	if part != nil {
		pt0 = part()
	}

	eng := &sim.Engine{}
	r := &timingRun{
		eng:      eng,
		offC:     dram.NewController(eng, offCfg),
		stkC:     dram.NewController(eng, stkCfg),
		l2Cycles: cfg.L2Cycles,
		res: TimingResult{
			Design:      design.Name(),
			ReadLatency: stats.NewHistogram(stats.LatencyBounds()...),
		},
	}
	// Resize traffic is pure background: nothing gates on it, and its
	// record returns to the pool when the last op lands.
	dm := newDemux(design, src, cfg.MaxRefs, cfg.Resize, ops, cfg.Cores, func(ops []dcache.Op) {
		fl := r.take(&r.freeResize, ops, 0)
		fl.read, fl.done = false, noop
		fl.dispatch()
	})
	cores := r.simulate(dm, cfg.MLP)

	res := r.res
	for _, c := range cores {
		res.Instructions += c.Instructions
		res.StallCycles += c.StallCycles
	}
	res.Cycles = uint64(eng.Now())
	res.QueueHighWater = uint64(dm.highWater)
	res.Counters = design.Counters().Sub(ctr0)
	res.OffChip = r.offC.Stats
	res.Stacked = r.stkC.Stats
	if part != nil {
		s := part().Sub(pt0)
		res.Partition = &s
	}
	if r.readLatN > 0 {
		res.AvgReadLatency = float64(r.readLatSum) / float64(r.readLatN)
		res.ReadLatencyP50 = res.ReadLatency.Percentile(0.50)
		res.ReadLatencyP90 = res.ReadLatency.Percentile(0.90)
		res.ReadLatencyP99 = res.ReadLatency.Percentile(0.99)
	}
	return res, dm.st.err
}

// simulate runs one core per demux queue, each with mlp outstanding
// reads, until every core has drained the demux, and returns the
// cores. It closes the demux on every path out, so its producer has
// exited when simulate returns or panics.
func (r *timingRun) simulate(dm *demux, mlp int) []*cpu.Core[*inflight] {
	defer dm.close()
	// A core's pull takes a pooled in-flight record owning a copy of
	// the outcome, which travels to issue as the core's record payload,
	// so the record/ops association is structural.
	cores := make([]*cpu.Core[*inflight], len(dm.queues))
	for i := range cores {
		id := i
		pull := func() (memtrace.Record, *inflight, bool) {
			qr, ops, ok := dm.pull(id)
			if !ok {
				return memtrace.Record{}, nil, false
			}
			return qr.rec, r.take(&r.free, ops, int(qr.tagCycles)), true
		}
		cores[i] = cpu.New(id, mlp, r.eng, pull, r.issue)
		cores[i].Start()
	}
	r.eng.Run(nil)
	return cores
}

// warmTiming steps RunTiming's functional warmup of n records (none
// when n <= 0) and returns the Access scratch it grew.
func warmTiming(design dcache.Design, src memtrace.Source, n int) ([]dcache.Op, error) {
	if n <= 0 {
		return nil, nil
	}
	st, piped := newStepper(design, src, n, nil, nil, nil, nil)
	defer st.close()
	if piped {
		st.readThrough(new(feed))
	}
	for st.next() {
	}
	return st.out.Ops, st.err
}

// timingRun is the memory-system side of one RunTiming: the engine,
// both controllers, the in-flight record pools, and the read-latency
// accumulators.
type timingRun struct {
	eng        *sim.Engine
	offC, stkC *dram.Controller
	l2Cycles   int
	// free pools the records of references; freeResize those of resize
	// transitions, whose op lists run to thousands of ops and would
	// otherwise grow a fresh set of slots in whichever reference record
	// each transition happened to take.
	free, freeResize []*inflight

	res                  TimingResult
	readLatSum, readLatN uint64
}

// noop is the completion of references nothing waits on (resize
// transitions).
func noop() {}

// inflight is one pulled reference, or one resize transition, on its
// way through the memory system. It owns a copy of the outcome's ops,
// one DRAM request per op slot, and the completion counts, and returns
// to its run's pool when its last op completes, so dispatch allocates
// nothing once the pool and its slots have grown to the run's needs.
type inflight struct {
	run       *timingRun
	home      *[]*inflight // the pool release returns to
	ops       []dcache.Op
	slots     []*opSlot
	tagCycles int

	read     bool
	issuedAt sim.Cycle
	done     func()

	critLeft, allLeft int
	// dispatchFn is dispatch bound once, for the SRAM lead-time event.
	dispatchFn func()
}

// opSlot carries the DRAM request of one op slot; the request's Done
// is complete bound once. Slots are allocated one by one and never
// copied, because the controller fires completion through a callback
// bound to the request's address.
type opSlot struct {
	fl  *inflight
	i   int32
	req dram.Request
}

func (s *opSlot) complete(sim.Cycle) { s.fl.complete(s.i) }

// take returns an in-flight record from the given pool holding a copy
// of ops.
func (r *timingRun) take(pool *[]*inflight, ops []dcache.Op, tagCycles int) *inflight {
	var fl *inflight
	if n := len(*pool); n > 0 {
		fl = (*pool)[n-1]
		*pool = (*pool)[:n-1]
	} else {
		fl = &inflight{run: r, home: pool}
		fl.dispatchFn = fl.dispatch
	}
	fl.ops = append(fl.ops[:0], ops...)
	for len(fl.slots) < len(fl.ops) {
		s := &opSlot{fl: fl, i: int32(len(fl.slots))}
		s.req.Done = s.complete
		fl.slots = append(fl.slots, s)
	}
	fl.tagCycles = tagCycles
	return fl
}

// issue starts a core's reference: the SRAM latencies (L2 probe plus
// cache metadata) elapse, then its ops dispatch.
func (r *timingRun) issue(rec memtrace.Record, fl *inflight, done func()) {
	r.res.Refs++
	fl.read, fl.issuedAt, fl.done = !rec.Write, r.eng.Now(), done
	r.eng.After(sim.Cycle(r.l2Cycles+fl.tagCycles), fl.dispatchFn)
}

// dispatch turns the outcome's operation DAG into DRAM transactions:
// ops with no dependency issue immediately, in index order, dependents
// issue on their parent's completion, and the reference finishes when
// every critical op has completed (right after the roots are submitted
// if there are none). Dependents are found by scanning ops, which keeps
// dispatch free of per-reference bookkeeping (outcome DAGs are at most
// a few dozen ops deep).
//
//fplint:hotpath
func (fl *inflight) dispatch() {
	if len(fl.ops) == 0 {
		fl.finish()
		fl.release()
		return
	}
	fl.critLeft, fl.allLeft = 0, len(fl.ops)
	for i := range fl.ops {
		if fl.ops[i].Critical {
			fl.critLeft++
		}
	}
	for i := range fl.ops {
		if fl.ops[i].DependsOn == dcache.NoDep {
			fl.submit(i)
		}
	}
	if fl.critLeft == 0 {
		// Nothing gates completion (posted writes): finish now, let
		// the ops drain in the background.
		fl.finish()
	}
}

// submit hands op i's request to its level's controller.
func (fl *inflight) submit(i int) {
	op := &fl.ops[i]
	req := &fl.slots[i].req
	req.Addr, req.Bytes, req.Write = op.Addr, op.Bytes, op.Write
	ctrl := fl.run.stkC
	if op.Level == dcache.OffChip {
		ctrl = fl.run.offC
	}
	ctrl.Submit(req)
}

// complete retires op i: the last critical op finishes the reference,
// then op i's dependents issue in index order, and the last op returns
// the record to the pool.
//
//fplint:hotpath
func (fl *inflight) complete(i int32) {
	if fl.ops[i].Critical {
		fl.critLeft--
		if fl.critLeft == 0 {
			fl.finish()
		}
	}
	for j := range fl.ops {
		if fl.ops[j].DependsOn == i {
			fl.submit(j)
		}
	}
	fl.allLeft--
	if fl.allLeft == 0 {
		fl.release()
	}
}

// finish signals the reference's completion, recording a read's
// issue-to-completion latency first.
func (fl *inflight) finish() {
	if fl.read {
		r := fl.run
		lat := uint64(r.eng.Now() - fl.issuedAt)
		r.readLatSum += lat
		r.readLatN++
		r.res.ReadLatency.Add(int64(lat))
	}
	fl.done()
}

// release returns the record to its pool.
func (fl *inflight) release() {
	fl.done = nil
	*fl.home = append(*fl.home, fl)
}
