package system

import (
	"fmt"
	"math"

	"fpcache/internal/dcache"
	"fpcache/internal/dram"
	"fpcache/internal/fault"
	"fpcache/internal/memtrace"
)

// stepper is the one reference loop every runner drives: functional
// warm and measure (SimState.run), timing warmup, and the timing
// demux. A step runs the design's Access on the next record,
// validates the first validateOutcomes outcomes, and at every
// measured-epoch boundary lets the policy decide, resizes, and
// validates the transition. Callers differ only in where the ops go,
// so every mode steps the same sequence by construction.
//
// A stepper with a long budget, built while a P is idle, gets a
// producer goroutine (feed.go): a functional or warmup stepper reads
// src through a record feed, and the timing demux runs the whole
// stepper on a producer of its own. Whoever builds a stepper closes
// it, on every path out.
//
// A functional stepper also replays each step's ops, then the
// transition's, on its row trackers: inline without a feed, or on the
// feed's producer, which close waits for. A timing stepper has no
// trackers; its caller takes the ops from out and trans.
type stepper struct {
	src        memtrace.Source
	feed       *feed
	design     dcache.Design
	offT, stkT *dram.Tracker
	// left is the record budget (math.MaxUint64 drains the source);
	// pos the number of records stepped.
	left, pos uint64
	instrs    uint64
	validated int

	// The resize driver; rz is nil when resizing is off.
	pol    ResizePolicy
	rz     Resizable
	period uint64
	part   func() dcache.PartitionStats

	// The last step's record and outcome, whose ops are the Access
	// scratch. When resized, trans holds the transition ops in a buffer
	// of their own: callers consume the outcome, then the transition.
	rec     memtrace.Record
	out     dcache.Outcome
	resized bool
	trans   []dcache.Op

	// err is the first validation failure; the stepper stops once set.
	err error
}

// newStepper steps up to n records of src (n <= 0 drains it) through
// design with Access scratch ops, replaying the ops on offT and stkT
// unless they are nil. Resizing is on only for a Resizable design
// under an enabled policy. It also returns the idle-P gate's verdict:
// whether the stepper should get a producer goroutine, which its
// caller gives it with readThrough or by running it on one. The caller
// must close the stepper.
func newStepper(design dcache.Design, src memtrace.Source, n int, pol ResizePolicy, ops []dcache.Op, offT, stkT *dram.Tracker) (stepper, bool) {
	s := stepper{src: src, design: design, offT: offT, stkT: stkT, left: math.MaxUint64, out: dcache.Outcome{Ops: ops}}
	if n > 0 {
		s.left = uint64(n)
	}
	piped := wantFeed(s.left, runningSteppers.Add(1))
	if rz, ok := design.(Resizable); ok && policyPeriod(pol) > 0 {
		s.pol, s.rz, s.period = pol, rz, uint64(pol.Period())
		s.part = partitionExtra(design)
	}
	return s, piped
}

// readThrough makes s read its source through f, whose producer reads
// the records ahead of s and replays s's ops on its row trackers.
func (s *stepper) readThrough(f *feed) {
	f.start(s.src, s.left, s.offT, s.stkT)
	s.feed, s.src = f, f
}

// next steps one record and reports whether it did: false once the
// budget or the source is spent, or on an invalid outcome (err). A
// transition that fails validation sets err and is dropped; its
// boundary reference is still returned, and the stepper stops after it.
func (s *stepper) next() bool {
	if s.left == 0 || s.err != nil {
		return false
	}
	rec, ok := s.src.Next()
	if !ok {
		s.left = 0
		return false
	}
	s.left--
	s.pos++
	s.instrs += uint64(rec.Gap) + 1
	s.rec = rec
	s.out = s.design.Access(rec, s.out.Ops)
	if s.validated < validateOutcomes {
		s.validated++
		if s.err = validateOps(s.design, s.out.Ops, "outcome"); s.err != nil {
			return false
		}
	}
	s.track(s.out.Ops)
	s.resized = false
	if s.rz != nil && s.pos%s.period == 0 {
		if frac, fire := s.pol.Decide(int(s.pos/s.period-1), telemetryOf(s.design, s.part, s.pos)); fire {
			s.trans = s.rz.Resize(frac, s.trans[:0])
			s.err = validateOps(s.design, s.trans, "resize transition")
			if s.resized = s.err == nil; s.resized {
				s.track(s.trans)
			}
		}
	}
	return true
}

// track replays valid ops on the row trackers, through the feed when
// there is one.
func (s *stepper) track(ops []dcache.Op) {
	switch {
	case s.offT == nil:
	case s.feed != nil:
		s.feed.keep(ops)
	default:
		applyOps(ops, s.offT, s.stkT)
	}
}

// close stops the stepper's feed, if it has one, and leaves the count
// of running steppers.
func (s *stepper) close() {
	if s.feed != nil {
		s.feed.close()
	}
	runningSteppers.Add(-1)
}

// validateOutcomes is how many leading outcome DAGs every stepper
// validates: miss, hit, evict, and bypass paths all appear within the
// first few dozen references of every workload, and the steady-state
// hot path pays nothing.
const validateOutcomes = 64

// validateOps rejects a structurally invalid operation list — a
// malformed outcome DAG would otherwise deadlock the timing
// simulator's dispatch (see inflight.dispatch) and silently strand
// pooled in-flight records. A design emitting one is a programming
// error, but on a server-scale sweep it must fail its one point, not
// the process: the error wraps fault.ErrInvalidOps so the sweep layer
// classifies and reports it. (Tests that want the old fail-loudly
// behavior panic in their own helpers.)
func validateOps(design dcache.Design, ops []dcache.Op, what string) error {
	if err := dcache.ValidateOps(ops); err != nil {
		return fmt.Errorf("system: design %q emitted an invalid %s op list (%v): %w",
			design.Name(), what, err, fault.ErrInvalidOps)
	}
	return nil
}
