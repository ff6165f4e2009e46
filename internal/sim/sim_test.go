package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	var e Engine
	var got []Cycle
	for _, at := range []Cycle{30, 10, 20, 10, 5} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.Run(nil)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestEngineTieBreaksByInsertionOrder(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { got = append(got, i) })
	}
	e.Run(nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken at %d: %v", i, got)
		}
	}
}

func TestEngineNowAdvances(t *testing.T) {
	var e Engine
	var at Cycle
	e.Schedule(42, func() { at = e.Now() })
	e.Run(nil)
	if at != 42 {
		t.Fatalf("Now() inside event = %d, want 42", at)
	}
	if e.Now() != 42 {
		t.Fatalf("final Now() = %d, want 42", e.Now())
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	var e Engine
	var order []string
	e.Schedule(100, func() {
		e.Schedule(50, func() { order = append(order, "past") })
		order = append(order, "now")
	})
	e.Run(nil)
	if len(order) != 2 || order[0] != "now" || order[1] != "past" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("past-scheduled event advanced clock to %d", e.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var e Engine
	var at Cycle
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run(nil)
	if at != 15 {
		t.Fatalf("After fired at %d, want 15", at)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	var e Engine
	if e.Cancel(Ticket{}) {
		t.Fatal("the zero Ticket cancelled something on an empty engine")
	}
	fired := false
	tk := e.Schedule(10, func() { fired = true })
	// The first event sits in arena slot 0; the zero Ticket still names
	// no event.
	if e.Cancel(Ticket{}) {
		t.Fatal("the zero Ticket cancelled the first event")
	}
	if !e.Cancel(tk) {
		t.Fatal("Cancel reported dead for a live event")
	}
	if e.Cancel(tk) {
		t.Fatal("second Cancel reported live")
	}
	e.Run(nil)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	e.Schedule(1, func() {})
	if !e.Step() {
		t.Fatal("Step with queued event returned false")
	}
	if e.Step() {
		t.Fatal("Step after draining returned true")
	}
}

func TestRunStopPredicate(t *testing.T) {
	var e Engine
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Cycle(i), func() { count++ })
	}
	e.Run(func() bool { return count >= 3 })
	if count != 3 {
		t.Fatalf("ran %d events, want 3", count)
	}
}

func TestRunUntilExecutesDeadlineInclusive(t *testing.T) {
	var e Engine
	var got []Cycle
	for _, at := range []Cycle{5, 10, 15} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.RunUntil(10)
	if len(got) != 2 {
		t.Fatalf("RunUntil(10) ran %v", got)
	}
	if e.Now() != 10 {
		t.Fatalf("RunUntil left clock at %d", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

// TestRunUntilSkipsCancelledWithoutOverrunning pins RunUntil's
// contract when a cancelled event comes first: it drains the dead
// event but must not run the live one queued past the deadline, from
// either queue tier.
func TestRunUntilSkipsCancelledWithoutOverrunning(t *testing.T) {
	for _, after := range []Cycle{11, wheelSize + 50} {
		var e Engine
		fired := false
		e.Cancel(e.Schedule(5, func() {}))
		e.Cancel(e.Schedule(10, func() {}))
		e.Schedule(after, func() { fired = true })
		e.RunUntil(10)
		if fired {
			t.Fatalf("RunUntil(10) ran the live event at %d", after)
		}
		if e.Now() != 10 {
			t.Fatalf("RunUntil(10) left clock at %d", e.Now())
		}
		if e.Pending() != 1 {
			t.Fatalf("pending = %d, want only the live event", e.Pending())
		}
		e.RunUntil(after)
		if !fired || e.Now() != after {
			t.Fatalf("RunUntil(%d): fired %v, clock %d", after, fired, e.Now())
		}
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	var e Engine
	e.RunUntil(99)
	if e.Now() != 99 {
		t.Fatalf("idle RunUntil left clock at %d", e.Now())
	}
}

func TestExecutedCounts(t *testing.T) {
	var e Engine
	for i := 0; i < 7; i++ {
		e.Schedule(Cycle(i), func() {})
	}
	tk := e.Schedule(100, func() {})
	e.Cancel(tk)
	e.Run(nil)
	if e.Executed != 7 {
		t.Fatalf("Executed = %d, want 7 (cancelled events don't count)", e.Executed)
	}
}

func TestCascadingEvents(t *testing.T) {
	var e Engine
	depth := 0
	var spawn func()
	spawn = func() {
		if depth < 100 {
			depth++
			e.After(1, spawn)
		}
	}
	e.Schedule(0, spawn)
	e.Run(nil)
	if depth != 100 {
		t.Fatalf("cascade depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
}

func TestRecycledEventInvalidatesStaleTicket(t *testing.T) {
	var e Engine
	tk := e.Schedule(1, func() {})
	e.Run(nil)
	// The fired event went back to the free list; its ticket is stale.
	if e.Cancel(tk) {
		t.Fatal("stale ticket cancelled a recycled event")
	}
	// The next schedule reuses the pooled object: cancelling through
	// the stale ticket must not kill the new event.
	fired := false
	e.Schedule(2, func() { fired = true })
	if e.Cancel(tk) {
		t.Fatal("stale ticket reported live after reuse")
	}
	e.Run(nil)
	if !fired {
		t.Fatal("stale ticket cancelled the reused event")
	}
}

func TestCancelledEventsAreRecycled(t *testing.T) {
	var e Engine
	for i := 0; i < 10; i++ {
		e.Cancel(e.Schedule(Cycle(i), func() {}))
	}
	e.Run(nil)
	if e.Executed != 0 {
		t.Fatalf("cancelled events executed: %d", e.Executed)
	}
	if len(e.free) != 10 {
		t.Fatalf("free list holds %d events, want 10", len(e.free))
	}
}

func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	var e Engine
	// Warm the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.Schedule(Cycle(i), func() {})
	}
	e.Run(nil)
	fn := func() {}
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+step allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// Property: under random Schedule/After/Cancel traffic — including
// calls made from inside firing events, schedules into the past, dense
// same-cycle ties, events at and beyond the timing wheel's span,
// same-cycle ties between an overflow-heap event and a later wheel
// event, and cancellations through stale tickets whose event
// objects have since been recycled — events fire in exactly (cycle,
// schedule order), each at its cycle, every uncancelled event fires
// once, and Cancel reports liveness exactly.
func TestPropertyEventOrdering(t *testing.T) {
	type sched struct {
		at               Cycle // effective firing cycle (past schedules clamp to Now)
		tk               Ticket
		fired, cancelled bool
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		var all []*sched
		var order []int
		ok := true
		var schedule func()
		cancel := func() {
			if len(all) == 0 {
				return
			}
			s := all[rng.Intn(len(all))]
			live := !s.fired && !s.cancelled
			if e.Cancel(s.tk) != live {
				ok = false
			}
			s.cancelled = s.cancelled || live
		}
		schedule = func() {
			if len(all) >= 4*n {
				return
			}
			id, s := len(all), &sched{}
			fn := func() {
				if s.fired || s.cancelled || e.Now() != s.at {
					ok = false
				}
				s.fired = true
				order = append(order, id)
				for k := rng.Intn(4); k > 0; k-- {
					if rng.Intn(3) == 0 {
						cancel()
					} else {
						schedule()
					}
				}
			}
			now := e.Now()
			switch rng.Intn(6) {
			case 0:
				d := Cycle(rng.Intn(4))
				s.at, s.tk = now+d, e.After(d, fn)
			case 1:
				at := Cycle(rng.Intn(int(now) + 4))
				s.at, s.tk = max(at, now), e.Schedule(at, fn)
			case 2:
				s.at = now + Cycle(rng.Intn(500))
				s.tk = e.Schedule(s.at, fn)
			case 3:
				// Around the wheel's edge: the last wheel cycle, the
				// first overflow cycle, and just past it.
				s.at = now + wheelSize - 1 + Cycle(rng.Intn(3))
				s.tk = e.Schedule(s.at, fn)
			case 4:
				// Well beyond the wheel span, into the overflow heap.
				s.at = now + wheelSize + Cycle(rng.Intn(3*wheelSize))
				s.tk = e.Schedule(s.at, fn)
			default:
				// A same-cycle tie between the tiers: reuse the cycle
				// of an earlier schedule, which may sit in the heap
				// while this one, now closer, lands in the wheel.
				if len(all) == 0 {
					s.at = now
				} else {
					s.at = max(all[rng.Intn(len(all))].at, now)
				}
				s.tk = e.Schedule(s.at, fn)
			}
			all = append(all, s)
		}
		for i := 0; i < n; i++ {
			schedule()
			if rng.Intn(4) == 0 {
				cancel()
			}
		}
		e.Run(nil)
		var want []int
		for id, s := range all {
			if !s.cancelled {
				want = append(want, id)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return all[want[i]].at < all[want[j]].at })
		if !ok || len(order) != len(want) || e.Pending() != 0 {
			return false
		}
		for i := range want {
			if order[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
