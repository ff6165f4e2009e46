package dram

import (
	"math/bits"

	"fpcache/internal/memtrace"
	"fpcache/internal/sim"
	"fpcache/internal/stats"
)

// Request is one DRAM transaction submitted to a Controller. Bytes is
// the payload size (multiple of 64); transfers larger than 64B are
// streamed from consecutive addresses on (usually) one row. Done is
// called when the last data beat completes.
//
// The controller queues the submitted pointer until its Done fires, so
// a submitted request must not be modified or resubmitted before then.
// Afterwards it may be reused: a long-lived request (a pooled one, say)
// resubmitted many times costs no allocation.
type Request struct {
	Addr  memtrace.Addr
	Bytes int
	Write bool
	Done  func(at sim.Cycle)

	arrived sim.Cycle
	seq     uint64
	loc     Location
	doneAt  sim.Cycle // the completion cycle commit scheduled
}

// CmdKind identifies a DRAM command reported through the Trace hook.
type CmdKind uint8

const (
	CmdActivate CmdKind = iota
	CmdPrecharge
	CmdRead
	CmdWrite
	CmdRefresh
)

// String implements fmt.Stringer.
func (k CmdKind) String() string {
	switch k {
	case CmdActivate:
		return "ACT"
	case CmdPrecharge:
		return "PRE"
	case CmdRead:
		return "RD"
	case CmdWrite:
		return "WR"
	case CmdRefresh:
		return "REF"
	default:
		return "?"
	}
}

// Cmd is one command-bus event: which command the controller issued,
// where, and at what cycle. Commands are reported in scheduling order,
// which is time-ordered per bank but may interleave across banks.
type Cmd struct {
	Kind    CmdKind
	Channel int
	Bank    int // -1 for all-bank refresh
	Row     int64
	At      sim.Cycle
}

// Controller is the command-level timing model of one DRAM subsystem.
// Each channel keeps per-bank request queues scheduled FR-FCFS: ready
// row hits bypass older row misses within a bank, and across banks
// the candidate with the earliest column command (data slot) wins —
// row hits breaking ties — so a stalled request on one bank never
// blocks another bank (no head-of-line blocking) and a row conflict
// never reserves the data bus ahead of a ready row hit.
// Writes are posted into a per-channel write queue drained in bursts
// between thresholds to amortize read/write bus turnaround, and each
// channel performs periodic all-bank refresh (tREFI/tRFC).
type Controller struct {
	eng  *sim.Engine
	cfg  Config
	dec  decoder
	t    cpuTiming
	chns []*channelState
	seq  uint64

	drainHigh, drainLow int

	Stats Stats
	// LatencySum / LatencyCount accumulate request latencies (arrival
	// to completion) for average-latency reporting.
	LatencySum   uint64
	LatencyCount uint64
	// ReadLatency is the distribution of read-request latencies
	// (arrival to last data beat), in CPU cycles.
	ReadLatency *stats.Histogram
	// Trace, when non-nil, receives every committed DRAM command with
	// its scheduled issue cycle — the observability hook the timing
	// invariant tests (and debugging) hang off. Must be set before the
	// first Submit.
	Trace func(Cmd)
}

// cpuTiming is the Timing table pre-converted to CPU cycles, so the
// scheduling hot path never repeats the float conversion. burst is
// the data-bus time of one 64B burst.
type cpuTiming struct {
	cas, rcd, rp, ras, rc, wr, wtr, rtw, rtp, rrd, faw sim.Cycle
	refi, rfc                                          sim.Cycle
	burst                                              sim.Cycle
}

type channelState struct {
	banks    []bankState
	nReads   int
	nWrites  int
	draining bool

	// rqMask / wqMask have bit b set while bank b's read / write queue
	// is non-empty, so arbitration visits only banks with work.
	rqMask, wqMask uint64
	// plans[b] is bank b's candidate, planned in place by
	// bestCandidate and reused by prepAhead until a prep moves the
	// activate window. Slot b's bank field is b for the slot's life.
	plans []sched

	busUsed   bool
	busWrite  bool
	busFreeAt sim.Cycle

	// Activate window: the issue times of the last four ACTs (for
	// tFAW), the most recent ACT (for tRRD), and the total count —
	// tFAW only constrains once four activates exist, so the ring's
	// zero-initialized slots are never consulted.
	actTimes  [4]sim.Cycle
	actIdx    int
	actCount  uint64
	lastActAt sim.Cycle

	refDueAt sim.Cycle

	wakeArmed bool
	wake      sim.Ticket
	// wakeFn is the channel's wakeup callback, built once.
	wakeFn func()

	// done[doneHead:] are the committed requests whose Done has not
	// fired, in commit order. That is completion order: each transfer
	// starts once the channel's previous one has ended (plan), so
	// completion cycles ascend. doneFn, built once, fires the oldest.
	done     []*Request
	doneHead int
	doneFn   func()
}

type bankState struct {
	openRow int64
	rq, wq  []qent // per-bank read and write queues, oldest first

	actReadyAt sim.Cycle // earliest next ACT (tRC, tRP after PRE, refresh)
	casReadyAt sim.Cycle // earliest CAS to the open row (ACT + tRCD)
	preReadyAt sim.Cycle // earliest PRE (ACT+tRAS, read+tRTP, write end+tWR)

	// prepClass marks a row opened ahead of its column command
	// (prepAhead) with the access class the opening observed: the
	// first column command to the row counts that class instead of a
	// row hit. prepNone when no prep is outstanding.
	prepClass uint8
}

// enqueue appends q to the bank's write or read queue. removeReq keeps
// a queue's capacity, so steady state reuses it.
func (b *bankState) enqueue(q qent, write bool) {
	if write {
		b.wq = append(b.wq, q)
	} else {
		b.rq = append(b.rq, q)
	}
}

// qent is one queued request with the fields arbitration reads kept
// inline, so scanning a queue never dereferences a *Request.
type qent struct {
	req *Request
	row int64
	seq uint64
}

// Access classes a prep-ahead observed; counted when the column
// command commits, so a prep wasted by an intervening row change or
// refresh costs only its (real) activate, never a double class count.
const (
	prepNone uint8 = iota
	prepMiss
	prepConflict
)

// NewController builds a timing model attached to the given engine.
func NewController(eng *sim.Engine, cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	tm := cfg.Timing
	c := &Controller{
		eng: eng,
		cfg: cfg,
		dec: newDecoder(&cfg),
		t: cpuTiming{
			cas: sim.Cycle(cfg.cpuCycles(tm.TCAS)),
			rcd: sim.Cycle(cfg.cpuCycles(tm.TRCD)),
			rp:  sim.Cycle(cfg.cpuCycles(tm.TRP)),
			ras: sim.Cycle(cfg.cpuCycles(tm.TRAS)),
			rc:  sim.Cycle(cfg.cpuCycles(tm.TRC)),
			wr:  sim.Cycle(cfg.cpuCycles(tm.TWR)),
			wtr: sim.Cycle(cfg.cpuCycles(tm.TWTR)),
			rtw: sim.Cycle(cfg.cpuCycles(tm.TRTW)),
			rtp: sim.Cycle(cfg.cpuCycles(tm.TRTP)),
			rrd: sim.Cycle(cfg.cpuCycles(tm.TRRD)),
			faw: sim.Cycle(cfg.cpuCycles(tm.TFAW)),
		},
		ReadLatency: stats.NewHistogram(stats.LatencyBounds()...),
	}
	if tm.TREFI > 0 && tm.TRFC > 0 {
		c.t.refi = sim.Cycle(cfg.cpuCycles(tm.TREFI))
		c.t.rfc = sim.Cycle(cfg.cpuCycles(tm.TRFC))
	}
	c.t.burst = sim.Cycle(cfg.BurstCPUCycles(64))
	c.drainHigh, c.drainLow = cfg.writeThresholds()
	for i := 0; i < cfg.Channels; i++ {
		ch := &channelState{
			banks: make([]bankState, cfg.BanksPerChan),
			plans: make([]sched, cfg.BanksPerChan),
		}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
			ch.plans[b].bank = b
		}
		ch.refDueAt = c.t.refi
		chIdx := i
		ch.wakeFn = func() {
			ch.wakeArmed = false
			c.schedule(chIdx)
		}
		ch.doneFn = func() { ch.complete(eng.Now()) }
		c.chns = append(c.chns, ch)
	}
	return c
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// QueueDepth returns the number of requests waiting on all channels.
func (c *Controller) QueueDepth() int {
	n := 0
	for _, ch := range c.chns {
		n += ch.nReads + ch.nWrites
	}
	return n
}

// Submit enqueues a request. Done fires on completion.
//
//fplint:hotpath
func (c *Controller) Submit(req *Request) {
	req.arrived = c.eng.Now()
	req.seq = c.seq
	c.seq++
	req.loc = c.dec.decode(req.Addr)
	ch := c.chns[req.loc.Channel]
	ch.banks[req.loc.Bank].enqueue(qent{req: req, row: req.loc.Row, seq: req.seq}, req.Write)
	if req.Write {
		ch.wqMask |= 1 << req.loc.Bank
		ch.nWrites++
	} else {
		ch.rqMask |= 1 << req.loc.Bank
		ch.nReads++
	}
	c.pump(req.loc.Channel)
}

// pump re-evaluates a channel's schedule after state changed (a new
// arrival may issue earlier than the armed wakeup).
func (c *Controller) pump(chIdx int) {
	ch := c.chns[chIdx]
	if ch.wakeArmed {
		c.eng.Cancel(ch.wake)
		ch.wakeArmed = false
	}
	c.schedule(chIdx)
}

// sched is one candidate command sequence for a request: the cycles
// its precharge / activate / column command would issue, the first of
// which is the commit time. Whether it reads or writes is the
// arbitration's served queue, the same for every candidate.
type sched struct {
	qent
	bank    int
	rowHit  bool
	needPre bool
	needAct bool
	pre     sim.Cycle
	act     sim.Cycle
	cas     sim.Cycle
	start   sim.Cycle
}

// schedule drives a channel: it commits every command sequence that
// can start now, interposes refresh when due, and otherwise arms a
// wakeup at the earliest future start across all banks — the fix for
// the old model's head-of-line blocking, which armed a single wakeup
// for one picked request even when another bank could issue sooner.
//
//fplint:hotpath
func (c *Controller) schedule(chIdx int) {
	ch := c.chns[chIdx]
	for {
		now := c.eng.Now()
		if c.t.refi > 0 && ch.refDueAt <= now {
			c.refresh(chIdx, ch)
			continue
		}
		serveWrites := c.serveWrites(ch)
		best := c.bestCandidate(ch, serveWrites, now)
		if best == nil {
			return
		}
		if c.t.refi > 0 && best.start >= ch.refDueAt {
			// The next command would issue past the refresh deadline:
			// refresh first, then reschedule around the blocked banks.
			c.refresh(chIdx, ch)
			continue
		}
		if best.start > now {
			// The winner waits (usually for the bus); losing banks
			// whose row preparation can start now pipeline their
			// PRE/ACT underneath the wait. A prep changes the
			// candidate picture (the prepped bank is now a ready row
			// hit), so re-arbitrate before arming the wakeup; each
			// prep opens a row, so the loop makes bounded progress.
			if c.prepAhead(chIdx, ch, now, serveWrites, best.bank) {
				continue
			}
			ch.wakeArmed = true
			ch.wake = c.eng.Schedule(best.start, ch.wakeFn)
			return
		}
		c.commit(chIdx, ch, best)
	}
}

// serveWrites reports whether the channel's next arbitration serves
// its write queue. Reads are served by default; writes drain in bursts
// once the write queue crosses the high threshold (until it reaches
// the low one) or opportunistically when no reads are pending,
// amortizing bus turnaround.
func (c *Controller) serveWrites(ch *channelState) bool {
	if ch.nWrites >= c.drainHigh {
		ch.draining = true
	} else if ch.nWrites <= c.drainLow {
		ch.draining = false
	}
	return ch.nWrites > 0 && (ch.draining || ch.nReads == 0)
}

// bestCandidate plans every bank with work in the served queue into
// its slot of ch.plans and returns the slot with the earliest column
// command, or nil when no bank has work.
func (c *Controller) bestCandidate(ch *channelState, serveWrites bool, now sim.Cycle) *sched {
	var best *sched
	// Visiting order is irrelevant: (cas, rowHit, seq) is a total order.
	for m := ch.queued(serveWrites); m != 0; m &= m - 1 {
		bi := bits.TrailingZeros64(m)
		s := &ch.plans[bi]
		c.plan(ch, s, bankPick(&ch.banks[bi], serveWrites), serveWrites, now)
		// Arbitrate on the column-command (data-slot) time, not the
		// first command: under bus contention every candidate's CAS
		// collapses to the next free bus slot, and the row-hit
		// tie-break then implements FR-FCFS — a row conflict whose
		// precharge could start earlier must not reserve the bus ahead
		// of a ready row hit.
		if best == nil || s.cas < best.cas ||
			(s.cas == best.cas && s.rowHit && !best.rowHit) ||
			(s.cas == best.cas && s.rowHit == best.rowHit && s.seq < best.seq) {
			best = s
		}
	}
	return best
}

// queued returns the mask of banks whose served queue is non-empty.
func (ch *channelState) queued(serveWrites bool) uint64 {
	if serveWrites {
		return ch.wqMask
	}
	return ch.rqMask
}

// bankPick returns a bank's FR-FCFS candidate from the served queue,
// which must be non-empty: the oldest row hit, else the oldest
// request. The pointer is into the queue, valid until it changes.
func bankPick(b *bankState, serveWrites bool) *qent {
	q := b.rq
	if serveWrites {
		q = b.wq
	}
	if b.openRow >= 0 && q[0].row != b.openRow {
		for i := 1; i < len(q); i++ {
			if q[i].row == b.openRow {
				return &q[i]
			}
		}
	}
	return &q[0]
}

// prepAhead pipelines row preparation under the arbitration winner's
// wait: every losing bank whose candidate needs an activate that can
// issue now gets its PRE/ACT committed immediately, so the row is
// open (and the access class counted) by the time its column command
// wins the bus. Without this, one bank's bus wait would idle every
// other bank's row preparation. Reports whether anything was prepped.
//
// It runs right after bestCandidate at the same cycle, so the plans
// bestCandidate left stand until the first prep commits; from then on
// each bank is re-planned in its slot, because the prep moved the
// activate window. Banks are prepped in ascending order, as each prep
// constrains the next.
func (c *Controller) prepAhead(chIdx int, ch *channelState, now sim.Cycle, serveWrites bool, skipBank int) bool {
	prepped := false
	for m := ch.queued(serveWrites) &^ (1 << skipBank); m != 0; m &= m - 1 {
		s := &ch.plans[bits.TrailingZeros64(m)]
		if prepped {
			c.plan(ch, s, &s.qent, serveWrites, now)
		}
		if !s.needAct || s.start > now {
			continue
		}
		if c.t.refi > 0 && s.act >= ch.refDueAt {
			continue // do not open a row the imminent refresh would close
		}
		cls := uint8(prepMiss)
		if s.needPre {
			cls = prepConflict
		}
		c.openRowFor(chIdx, ch, s)
		ch.banks[s.bank].prepClass = cls
		prepped = true
	}
	return prepped
}

// openRowFor commits the PRE/ACT portion of a planned sequence: trace
// events, activate-window bookkeeping, and bank-state updates. The
// row-buffer access class is counted separately, when the column
// command commits.
func (c *Controller) openRowFor(chIdx int, ch *channelState, s *sched) {
	b := &ch.banks[s.bank]
	if s.needPre {
		c.emit(Cmd{Kind: CmdPrecharge, Channel: chIdx, Bank: s.bank, Row: b.openRow, At: s.pre})
	}
	c.Stats.Activates++
	c.noteActivate(ch, s.act)
	b.actReadyAt = s.act + c.t.rc
	b.casReadyAt = s.act + c.t.rcd
	b.preReadyAt = s.act + c.t.ras
	b.openRow = s.row
	c.emit(Cmd{Kind: CmdActivate, Channel: chIdx, Bank: s.bank, Row: s.row, At: s.act})
}

// plan computes the earliest command sequence for a request on its
// bank, honoring bank-state timing, the channel activate window
// (tRRD, and tFAW only once four activates exist), row state, and the
// data bus: the column command is timed so its data lands in a free
// bus slot (plus the read<->write turnaround when the transfer
// direction flips), which also paces row-hit streams at bus rate so a
// due refresh can interpose.
//
// The plan is written into s, the slot of the bank q is queued on, and
// every field but the slot's bank is set, so nothing of the slot's
// previous plan survives. q may be the slot's own qent.
func (c *Controller) plan(ch *channelState, s *sched, q *qent, write bool, now sim.Cycle) {
	b := &ch.banks[s.bank]
	s.qent = *q
	// Earliest CAS whose data slot clears the bus. tWTR spaces the
	// read *command* from the end of write data (JEDEC semantics);
	// tRTW is the bus gap before write data follows read data.
	casMin := sim.Cycle(0)
	busAvail := ch.busFreeAt
	if ch.busUsed && ch.busWrite != write {
		if write {
			busAvail += c.t.rtw
		} else {
			casMin = ch.busFreeAt + c.t.wtr
		}
	}
	if busAvail > c.t.cas {
		casMin = max(casMin, busAvail-c.t.cas)
	}
	switch {
	case b.openRow == s.row:
		s.rowHit, s.needPre, s.needAct = true, false, false
		s.pre, s.act = 0, 0
		s.cas = max(max(now, b.casReadyAt), casMin)
		s.start = s.cas
	case b.openRow < 0:
		s.rowHit, s.needPre, s.needAct = false, false, true
		s.pre = 0
		s.act = max(max(now, b.actReadyAt), c.actWindowMin(ch))
		s.cas = max(s.act+c.t.rcd, casMin)
		s.start = s.act
	default:
		s.rowHit, s.needPre, s.needAct = false, true, true
		s.pre = max(now, b.preReadyAt)
		s.act = max(max(s.pre+c.t.rp, b.actReadyAt), c.actWindowMin(ch))
		s.cas = max(s.act+c.t.rcd, casMin)
		s.start = s.pre
	}
}

// actWindowMin returns the earliest cycle the channel may issue its
// next ACT under tRRD and tFAW. The four-activate window only
// constrains once at least four activates have been recorded — before
// that the ring holds no real history.
func (c *Controller) actWindowMin(ch *channelState) sim.Cycle {
	if ch.actCount == 0 {
		return 0
	}
	m := ch.lastActAt + c.t.rrd
	if ch.actCount >= 4 {
		if faw := ch.actTimes[ch.actIdx] + c.t.faw; faw > m {
			m = faw
		}
	}
	return m
}

// commit dequeues the request and executes its command sequence:
// stats, bank and bus state updates, trace events, and completion.
func (c *Controller) commit(chIdx int, ch *channelState, s *sched) {
	req := s.req
	b := &ch.banks[s.bank]
	if req.Write {
		if b.wq = removeReq(b.wq, req); len(b.wq) == 0 {
			ch.wqMask &^= 1 << s.bank
		}
		ch.nWrites--
	} else {
		if b.rq = removeReq(b.rq, req); len(b.rq) == 0 {
			ch.rqMask &^= 1 << s.bank
		}
		ch.nReads--
	}

	switch {
	case s.rowHit:
		// First column command to a prepped row counts the class its
		// row opening observed; later ones are genuine row hits.
		switch b.prepClass {
		case prepMiss:
			c.Stats.RowMisses++
		case prepConflict:
			c.Stats.RowConflict++
		default:
			c.Stats.RowHits++
		}
		b.prepClass = prepNone
	case s.needPre:
		c.Stats.RowConflict++
	default:
		c.Stats.RowMisses++
	}
	if s.needAct {
		// Any prepped row is gone; only its (real) activate stands.
		b.prepClass = prepNone
		c.openRowFor(chIdx, ch, s)
	}

	// Data transfer: CAS latency, then the bus streams the payload.
	// plan already timed the CAS so the data slot clears the bus and
	// any direction-switch turnaround.
	bursts := (req.Bytes + 63) / 64
	if bursts == 0 {
		bursts = 1
	}
	dataStart := s.cas + c.t.cas
	dataEnd := dataStart + sim.Cycle(bursts)*c.t.burst
	ch.busFreeAt = dataEnd
	ch.busWrite = req.Write
	ch.busUsed = true

	if req.Write {
		c.Stats.WriteBursts += uint64(bursts)
		b.preReadyAt = max(b.preReadyAt, dataEnd+c.t.wr)
		c.emit(Cmd{Kind: CmdWrite, Channel: chIdx, Bank: s.bank, Row: req.loc.Row, At: s.cas})
	} else {
		c.Stats.ReadBursts += uint64(bursts)
		// A streamed transfer is a sequence of column reads of the open
		// row; tRTP binds from the *last* of them (whose data fills the
		// final burst slot before dataEnd), so the row stays open until
		// the payload has streamed — a precharge or refresh must not
		// close it mid-transfer.
		lastCas := dataEnd - c.t.burst - c.t.cas
		b.preReadyAt = max(b.preReadyAt, lastCas+c.t.rtp)
		c.emit(Cmd{Kind: CmdRead, Channel: chIdx, Bank: s.bank, Row: req.loc.Row, At: s.cas})
		c.ReadLatency.Add(int64(dataEnd - req.arrived))
	}
	if c.cfg.Policy == ClosePage {
		// Auto-precharge: the row closes once both the bank's precharge
		// constraints and the streamed payload allow it; the next access
		// pays tRP (folded into activate readiness) plus tRCD.
		closeAt := max(b.preReadyAt, dataEnd)
		b.actReadyAt = max(b.actReadyAt, closeAt+c.t.rp)
		b.openRow = -1
		c.emit(Cmd{Kind: CmdPrecharge, Channel: chIdx, Bank: s.bank, Row: req.loc.Row, At: closeAt})
	}

	c.LatencySum += uint64(dataEnd - req.arrived)
	c.LatencyCount++
	if req.Done != nil {
		req.doneAt = dataEnd
		ch.awaitDone(req)
		c.eng.Schedule(dataEnd, ch.doneFn)
	}
}

// awaitDone queues a committed request for its Done. A full queue
// first drops its fired head instead of growing.
func (ch *channelState) awaitDone(req *Request) {
	if len(ch.done) == cap(ch.done) && ch.doneHead > 0 {
		n := copy(ch.done, ch.done[ch.doneHead:])
		clear(ch.done[n:])
		ch.done, ch.doneHead = ch.done[:n], 0
	}
	ch.done = append(ch.done, req)
}

// complete fires the oldest committed request's Done; the engine calls
// it (doneFn) once per completion, at that request's cycle.
func (ch *channelState) complete(now sim.Cycle) {
	req := ch.done[ch.doneHead]
	ch.done[ch.doneHead] = nil
	if ch.doneHead++; ch.doneHead == len(ch.done) {
		ch.done, ch.doneHead = ch.done[:0], 0
	}
	if req.doneAt != now {
		panic("dram: a completion fired out of commit order")
	}
	req.Done(now)
}

// refresh performs one all-bank refresh on the channel: open rows are
// precharged, every bank is blocked for tRFC, and the next deadline
// advances by tREFI.
func (c *Controller) refresh(chIdx int, ch *channelState) {
	start := ch.refDueAt
	anyOpen := false
	for i := range ch.banks {
		b := &ch.banks[i]
		if b.openRow >= 0 {
			anyOpen = true
			if b.preReadyAt > start {
				start = b.preReadyAt
			}
		} else if b.actReadyAt > start {
			// A bank mid-activate (or mid-refresh) delays the refresh
			// until its row cycle completes.
			start = b.actReadyAt
		}
	}
	if anyOpen {
		for i := range ch.banks {
			if b := &ch.banks[i]; b.openRow >= 0 {
				c.emit(Cmd{Kind: CmdPrecharge, Channel: chIdx, Bank: i, Row: b.openRow, At: start})
			}
		}
		start += c.t.rp
	}
	refEnd := start + c.t.rfc
	for i := range ch.banks {
		b := &ch.banks[i]
		b.openRow = -1
		b.prepClass = prepNone // refresh closes prepped rows; their activates stand
		if b.actReadyAt < refEnd {
			b.actReadyAt = refEnd
		}
		if b.preReadyAt < refEnd {
			b.preReadyAt = refEnd
		}
	}
	ch.refDueAt += c.t.refi
	c.Stats.Refreshes++
	c.emit(Cmd{Kind: CmdRefresh, Channel: chIdx, Bank: -1, Row: -1, At: start})
}

// noteActivate records an ACT in the channel's activate window.
func (c *Controller) noteActivate(ch *channelState, at sim.Cycle) {
	ch.actTimes[ch.actIdx] = at
	ch.actIdx = (ch.actIdx + 1) % len(ch.actTimes)
	ch.lastActAt = at
	ch.actCount++
}

// emit reports a command through the Trace hook, if installed.
func (c *Controller) emit(cmd Cmd) {
	if c.Trace != nil {
		c.Trace(cmd)
	}
}

// removeReq removes one request (by identity) from a queue, keeping
// order. The request is always present; queues are MLP-bounded and
// short, so the linear scan is cheaper than bookkeeping indices.
func removeReq(q []qent, req *Request) []qent {
	for i, e := range q {
		if e.req == req {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = qent{}
			return q[:len(q)-1]
		}
	}
	panic("dram: request not in queue")
}

// AvgLatency returns the mean request latency in CPU cycles.
func (c *Controller) AvgLatency() float64 {
	if c.LatencyCount == 0 {
		return 0
	}
	return float64(c.LatencySum) / float64(c.LatencyCount)
}
