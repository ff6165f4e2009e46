// Package sim provides the discrete-event simulation kernel used by
// the timing model: a monotonic cycle clock and an event queue with
// deterministic tie-breaking.
//
// Components schedule callbacks at absolute cycle times; the engine
// runs them in (time, insertion-order) order, so simulations are fully
// deterministic for a given seed and configuration.
//
// The queue has two tiers. Almost every event lands less than
// wheelSize cycles ahead (controller wakeups, data completions, core
// issue slots), and those go into a timing wheel: one FIFO bucket per
// cycle, threaded through event.next, with an occupancy bitmap so the
// next non-empty bucket is a TrailingZeros64 away. A bucket only ever
// holds one cycle's events, because every wheel event lies in [now,
// now+wheelSize) and now never passes a pending event. Events further
// ahead go into the overflow tier, a binary min-heap over a slice of
// entry values, each storing its (cycle, seq) key inline next to the
// event it orders, so sifting compares keys without dereferencing an
// event or boxing through container/heap's interface.
//
// The two tiers need no migration step to keep the exact (cycle, seq)
// order. Sequence numbers only grow and now never goes back, so a heap
// event at cycle T, scheduled while T-now >= wheelSize, was scheduled
// before every wheel event at T, scheduled while T-now < wheelSize.
// Hence when the heap's top cycle is <= the wheel's next cycle, the
// heap top fires first; otherwise the wheel's next bucket does, in
// FIFO (= seq) order.
//
// Events live by value in one arena slice and are named by their index
// in it; fired and cancelled events are recycled through a free list of
// indices, so the arena grows to the most events ever pending at once
// and a steady-state simulation allocates nothing. A Ticket names the
// event's schedule sequence number, so cancelling an already-recycled
// event is a safe no-op.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle uint64

// wheelSize is the timing wheel's span in cycles: events scheduled
// fewer cycles ahead go into the wheel, the rest into the overflow
// heap. In the timing pipeline over 99.9% of events land under 1024
// cycles ahead.
const (
	wheelSize  = 2048
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// event is a scheduled callback. A heap event's ordering key lives in
// its heap entry and a wheel event's in its bucket; seq is kept here
// only so a Ticket can tell whether it still names this incarnation of
// the recycled slot. next links a wheel bucket's FIFO by arena index.
type event struct {
	fn   func()
	seq  uint64
	next int32
	dead bool
}

// entry is one heap slot: the (at, seq) key inline, plus its event's
// arena index.
type entry struct {
	at  Cycle
	seq uint64
	ev  int32
}

// before reports whether a fires before b.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// bucket is one wheel slot's FIFO of events, all at the same cycle, by
// arena index; head and tail mean something only while the slot's
// occupancy bit is set.
type bucket struct {
	head, tail int32
}

// Engine is the event-driven simulation core. The zero value is ready
// to use at cycle 0.
type Engine struct {
	now Cycle
	seq uint64
	// wheel holds events less than wheelSize cycles ahead, bucket
	// at&wheelMask; occ has bit i set when wheel[i] is non-empty, and
	// inWheel counts the wheel's events.
	wheel   [wheelSize]bucket
	occ     [wheelWords]uint64
	inWheel int
	// queue is the overflow heap for events further ahead.
	queue []entry
	// events is the arena of every event ever pending; free lists the
	// indices of its fired and cancelled events.
	events []event
	free   []int32
	// Executed counts events run, for progress reporting and
	// runaway-simulation guards.
	Executed uint64
}

// Now returns the current simulated time.
func (e *Engine) Now() Cycle { return e.now }

// Ticket identifies a scheduled event so it can be cancelled. The
// sequence number guards against the event slot having been recycled
// for a later schedule; sequence numbers start at 1, so the zero Ticket
// names no event.
type Ticket struct {
	ev  int32
	seq uint64
}

// push inserts x, sifting it up from the tail.
func (e *Engine) push(x entry) {
	q := append(e.queue, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	e.queue = q
}

// pop removes and returns the earliest entry; the queue must be
// non-empty.
func (e *Engine) pop() entry {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q[n] = entry{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(q[c]) {
				c++
			}
			if !q[c].before(x) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = x
	}
	e.queue = q
	return top
}

// recycle returns a popped event to the free list, invalidating any
// outstanding Tickets for it.
func (e *Engine) recycle(i int32) {
	ev := &e.events[i]
	ev.fn = nil
	ev.dead = true
	e.free = append(e.free, i)
}

// Schedule runs fn at absolute cycle at. Scheduling in the past (at <
// Now) runs the event at the current time, preserving order. It
// returns a Ticket that can cancel the event before it fires.
func (e *Engine) Schedule(at Cycle, fn func()) Ticket {
	if at < e.now {
		at = e.now
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.events))
		e.events = append(e.events, event{})
	}
	e.seq++
	seq := e.seq
	ev := &e.events[i]
	ev.fn, ev.seq, ev.dead = fn, seq, false
	if at-e.now < wheelSize {
		w := at & wheelMask
		b := &e.wheel[w]
		if e.occ[w>>6]&(1<<(w&63)) == 0 {
			b.head = i
			e.occ[w>>6] |= 1 << (w & 63)
		} else {
			e.events[b.tail].next = i
		}
		b.tail = i
		e.inWheel++
	} else {
		e.push(entry{at: at, seq: seq, ev: i})
	}
	return Ticket{ev: i, seq: seq}
}

// After runs fn delta cycles from now.
func (e *Engine) After(delta Cycle, fn func()) Ticket {
	return e.Schedule(e.now+delta, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling an
// already-fired or already-cancelled event is a no-op. It reports
// whether the event was live.
func (e *Engine) Cancel(t Ticket) bool {
	if int(t.ev) >= len(e.events) {
		return false
	}
	ev := &e.events[t.ev]
	if ev.seq != t.seq || ev.dead {
		return false
	}
	ev.dead = true
	return true
}

// Pending returns the number of events still queued (including
// cancelled events not yet drained).
func (e *Engine) Pending() int { return e.inWheel + len(e.queue) }

// wheelNext returns the cycle of the wheel's earliest non-empty
// bucket; the wheel must be non-empty. Buckets are scanned from now's
// slot onwards, wrapping, so the first set bit is the earliest cycle.
func (e *Engine) wheelNext() Cycle {
	s := uint(e.now & wheelMask)
	w := s >> 6
	if m := e.occ[w] >> (s & 63); m != 0 {
		return e.now + Cycle(bits.TrailingZeros64(m))
	}
	// The last pass revisits word w whole: its bits below s are the
	// wrapped-around cycles furthest ahead.
	for i := uint(1); i <= wheelWords; i++ {
		wi := (w + i) % wheelWords
		if m := e.occ[wi]; m != 0 {
			slot := wi<<6 + uint(bits.TrailingZeros64(m))
			return e.now + Cycle((slot-s)&wheelMask)
		}
	}
	panic("sim: wheel count out of step with its occupancy bitmap")
}

// next removes and returns the earliest queued event's arena index and
// its cycle, provided that cycle is <= limit; ok is false when nothing
// queued is due by then. On equal cycles the heap top goes first: see
// the package comment.
func (e *Engine) next(limit Cycle) (i int32, at Cycle, ok bool) {
	heap := len(e.queue) > 0
	if e.inWheel > 0 {
		at = e.wheelNext()
		heap = heap && e.queue[0].at <= at
	} else if !heap {
		return 0, 0, false
	}
	if heap {
		if at = e.queue[0].at; at > limit {
			return 0, 0, false
		}
		return e.pop().ev, at, true
	}
	if at > limit {
		return 0, 0, false
	}
	w := at & wheelMask
	b := &e.wheel[w]
	if i = b.head; i == b.tail {
		e.occ[w>>6] &^= 1 << (w & 63)
	} else {
		b.head = e.events[i].next
	}
	e.inWheel--
	return i, at, true
}

// Step executes the next event. It reports false if the queue is
// empty.
func (e *Engine) Step() bool {
	return e.stepUntil(^Cycle(0))
}

// stepUntil executes the next event if it is due by deadline,
// draining cancelled events ahead of it, and reports whether one ran.
// A cancelled event first never lets a live one past the deadline run.
func (e *Engine) stepUntil(deadline Cycle) bool {
	for {
		i, at, ok := e.next(deadline)
		if !ok {
			return false
		}
		if e.events[i].dead {
			e.recycle(i)
			continue
		}
		e.now = at
		e.Executed++
		fn := e.events[i].fn
		e.recycle(i)
		fn()
		return true
	}
}

// Run executes events until the queue drains or until the optional
// stop predicate returns true (checked before each event). It returns
// the final simulated time.
func (e *Engine) Run(stop func() bool) Cycle {
	for {
		if stop != nil && stop() {
			return e.now
		}
		if !e.Step() {
			return e.now
		}
	}
}

// RunUntil executes events with timestamps <= deadline.
func (e *Engine) RunUntil(deadline Cycle) Cycle {
	for e.stepUntil(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}
