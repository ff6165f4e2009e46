package dram

import (
	"testing"

	"fpcache/internal/sim"
)

// planState is one channel and bank state plan can see: the bank's row
// relative to the request's (open on it, closed, open on another), the
// served direction, the last bus transfer (none, read, write) and
// whether four recent activates fill the tFAW window.
type planState struct {
	openRow int64
	write   bool
	bus     int
	fullFAW bool
}

func (p planState) apply(ch *channelState, bank int) {
	b := &ch.banks[bank]
	b.openRow = p.openRow
	b.actReadyAt, b.casReadyAt, b.preReadyAt = 130, 170, 150
	ch.busUsed, ch.busWrite, ch.busFreeAt = p.bus != 0, p.bus == 2, 160
	ch.actTimes, ch.actIdx, ch.lastActAt, ch.actCount = [4]sim.Cycle{95, 97, 98, 99}, 0, 99, 2
	if p.fullFAW {
		ch.actCount = 4
	}
}

// plan writes every field of its slot but the bank, so planning into a
// slot that holds a stale plan of any class, read or write, gives the
// same plan as planning into a zeroed slot.
func TestPlanInPlaceOverwritesStalePlan(t *testing.T) {
	const bank, row = 3, 42
	c := NewController(&sim.Engine{}, StackedDDR3_3200())
	ch := c.chns[0]
	const now = sim.Cycle(100)
	staleQ := qent{req: &Request{}, row: row, seq: 7}
	q := qent{req: &Request{}, row: row, seq: 1}

	var states []planState
	for _, open := range []int64{row, -1, row + 1} {
		for _, write := range []bool{false, true} {
			for bus := 0; bus < 3; bus++ {
				for _, full := range []bool{false, true} {
					states = append(states, planState{open, write, bus, full})
				}
			}
		}
	}
	var hits, misses, conflicts, turnarounds, fawBound int
	for _, st := range states {
		st.apply(ch, bank)
		want := sched{bank: bank}
		c.plan(ch, &want, &q, st.write, now)
		switch {
		case want.rowHit:
			hits++
		case want.needPre:
			conflicts++
		default:
			misses++
		}
		if st.bus != 0 && (st.bus == 2) != st.write {
			turnarounds++
		}
		if st.fullFAW && want.needAct && want.act == ch.actTimes[0]+c.t.faw {
			fawBound++
		}
		for _, stale := range states {
			slot := &ch.plans[bank]
			stale.apply(ch, bank)
			c.plan(ch, slot, &staleQ, stale.write, now)
			st.apply(ch, bank)
			c.plan(ch, slot, &q, st.write, now)
			if *slot != want {
				t.Fatalf("state %+v after stale %+v: planned %+v, want %+v", st, stale, *slot, want)
			}
		}
	}
	if hits == 0 || misses == 0 || conflicts == 0 || turnarounds == 0 || fawBound == 0 {
		t.Fatalf("states cover %d hits, %d misses, %d conflicts, %d turnarounds, %d tFAW-bound activates; want each",
			hits, misses, conflicts, turnarounds, fawBound)
	}
}
