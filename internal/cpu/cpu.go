// Package cpu models the cores of one scale-out pod for trace-driven
// timing simulation.
//
// Each core replays its shard of the L2-miss trace: between memory
// requests it executes the record's Gap of non-memory instructions at
// a base IPC of 1 (a lean 3-way OoO core, Table 3), and it may keep a
// bounded number of memory reads outstanding (its memory-level
// parallelism). Reads occupy an MLP slot until their critical DRAM
// operations complete; writes are posted L2 writebacks and do not
// stall the core. The performance metric is the paper's (§5.4):
// aggregate committed instructions over total cycles.
//
// Core is generic over a payload the trace source attaches to each
// record (e.g. the functionally precomputed outcome in the timing
// runner): the payload travels from pull to issue with its record, so
// the association is structural rather than resting on call-ordering
// side channels.
package cpu

import (
	"fpcache/internal/memtrace"
	"fpcache/internal/sim"
)

// IssueFn dispatches a memory request into the memory system,
// together with the payload its pull attached; it must eventually
// call done exactly once for reads (writes may complete immediately).
type IssueFn[P any] func(rec memtrace.Record, payload P, done func())

// PullFn supplies a core's next trace record plus its payload.
type PullFn[P any] func() (memtrace.Record, P, bool)

// Core is one trace-driven core.
type Core[P any] struct {
	id  int
	mlp int
	eng *sim.Engine

	pull  PullFn[P]
	issue IssueFn[P]
	// stepFn and completeFn are step and onComplete bound once at
	// construction, so rescheduling and issuing build no method values.
	stepFn, completeFn func()

	hasPending  bool
	pendRec     memtrace.Record
	pendPayload P
	readyAt     sim.Cycle
	outstanding int
	stalled     bool
	finished    bool

	// Instructions counts committed instructions (gap + the memory
	// instruction itself per record).
	Instructions uint64
	// StallCycles accumulates time spent with a ready request blocked
	// on a full MLP window.
	StallCycles  uint64
	stalledSince sim.Cycle
	// LastIssue records the time of the core's last activity, used as
	// its completion time.
	LastIssue sim.Cycle
}

// New builds a core. pull supplies the core's trace shard; issue
// injects requests into the memory system.
func New[P any](id, mlp int, eng *sim.Engine, pull PullFn[P], issue IssueFn[P]) *Core[P] {
	if mlp < 1 {
		mlp = 1
	}
	c := &Core[P]{id: id, mlp: mlp, eng: eng, pull: pull, issue: issue}
	c.stepFn, c.completeFn = c.step, c.onComplete
	return c
}

// postedDone is the completion callback every posted write shares.
func postedDone() {}

// Start schedules the core's first issue. Call once.
func (c *Core[P]) Start() {
	c.eng.Schedule(c.eng.Now(), c.stepFn)
}

// Finished reports whether the core exhausted its trace.
func (c *Core[P]) Finished() bool { return c.finished }

// step advances the core: fetch the next record if needed, wait out
// its compute gap, then issue when an MLP slot is free.
func (c *Core[P]) step() {
	if !c.hasPending {
		rec, payload, ok := c.pull()
		if !ok {
			c.finished = true
			return
		}
		c.pendRec, c.pendPayload, c.hasPending = rec, payload, true
		c.readyAt = c.eng.Now() + sim.Cycle(rec.Gap) // base IPC 1.0
	}
	now := c.eng.Now()
	if now < c.readyAt {
		c.eng.Schedule(c.readyAt, c.stepFn)
		return
	}
	if !c.pendRec.Write && c.outstanding >= c.mlp {
		// Window full: wait for a completion.
		if !c.stalled {
			c.stalled = true
			c.stalledSince = now
		}
		return
	}
	rec, payload := c.pendRec, c.pendPayload
	c.hasPending = false
	var zero P
	c.pendPayload = zero
	c.Instructions += uint64(rec.Gap) + 1
	c.LastIssue = now
	if rec.Write {
		// Posted writeback: consumes bandwidth, not an MLP slot.
		c.issue(rec, payload, postedDone)
	} else {
		c.outstanding++
		c.issue(rec, payload, c.completeFn)
	}
	// Pipeline: move straight to the next record's gap.
	c.eng.Schedule(now, c.stepFn)
}

// onComplete returns an MLP slot and unblocks a stalled core.
func (c *Core[P]) onComplete() {
	c.outstanding--
	if c.outstanding < 0 {
		panic("cpu: negative outstanding count (done called twice?)")
	}
	if c.stalled {
		c.stalled = false
		c.StallCycles += uint64(c.eng.Now() - c.stalledSince)
		c.eng.Schedule(c.eng.Now(), c.stepFn)
	}
}
