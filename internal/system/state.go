package system

import (
	"fmt"
	"io"
	"math"

	"fpcache/internal/core"
	"fpcache/internal/dcache"
	"fpcache/internal/dram"
	"fpcache/internal/fault"
	"fpcache/internal/memtrace"
	"fpcache/internal/snap"
)

// SimState bundles a design with its functional DRAM row trackers —
// everything a functional run mutates — so warm state can be built
// once, snapshotted, and restored, mirroring the paper's warmed
// checkpoints (§5.4). RunFunctional is a thin wrapper over
// NewSimState + Warm + Measure, so a restored state continues
// byte-identically to an uninterrupted run by construction.
//
// A timing run shares the same warm state: RunTiming's functional
// warmup steps the same stepper Warm does, so its Access sequence is
// Warm's by construction (the trackers Warm additionally touches are
// not consulted by the timing simulator), and one snapshot serves both
// simulation modes.
type SimState struct {
	design dcache.Design
	offT   *dram.Tracker
	stkT   *dram.Tracker
	// pol is the partition resize policy driven at measured-reference
	// epoch boundaries; nil (or a disabled policy, or a design that is
	// not Resizable) measures without resizes.
	pol ResizePolicy
	// ops is the run-wide scratch buffer: each Access appends into it
	// and the stepper hands it to the trackers before the next
	// reference, so the steady-state loop allocates nothing.
	ops []dcache.Op
	// feed is the record feed every piped stepper of the state reads
	// through, nil until the first one; its buffers outlive each run.
	feed *feed
}

// warmStateKind is the snapshot envelope kind of a SimState.
const warmStateKind = "fpcache-warmstate"

// warmStateVersion versions the warm-state envelope layout — the run
// identity fields wrapped around the design payload — independently of
// dcache.SnapshotVersion, which versions the design-state layout
// itself. Version 2 added trace identity (TraceID) so a state warmed
// on one recorded stream can never continue another; version 3
// appended a resize policy state section; version 4 marks the DRAM
// tracker gaining its precomputed address decoder, which changed its
// carrier fingerprint but not its bytes; version 5 marks the warm
// cache's files gaining a CRC-32C trailer (WarmCache.Store), so
// entries written without one miss instead of quarantining; version 6
// drops the policy section and the capture-record field, which only
// mid-run checkpoints set. Bumping either version invalidates old
// entries cleanly: the content key misses and the envelope check
// rejects.
// The fplint snapmeta analyzer pins the serialized structs' field
// layout to the fingerprint below; if it fires, refresh the directive,
// and bump this const (with the codec) only if the bytes the codec
// writes changed.
//
//fplint:snapfields 0x1771c2ef
const warmStateVersion = 6

// NewSimState builds the functional run state for a design, with DRAM
// trackers configured per the design's policies.
func NewSimState(design dcache.Design) *SimState {
	offCfg, stkCfg := DRAMConfigsForDesign(design)
	return &SimState{
		design: design,
		offT:   dram.NewTracker(offCfg),
		stkT:   dram.NewTracker(stkCfg),
	}
}

// Design returns the wrapped design.
func (s *SimState) Design() dcache.Design { return s.design }

// SetPolicy installs the partition resize policy Measure drives. A
// snapshot never carries the policy: it captures the warmup boundary,
// where every policy is still in its initial state.
func (s *SimState) SetPolicy(pol ResizePolicy) { s.pol = pol }

// run steps up to n records (n <= 0 drains the source) through the
// design, and the stepper replays each outcome's ops and then any
// resize transition's ops into the trackers. pol sets the stepper's
// epoch schedule. Returns the instruction count, the number of records
// stepped, and a typed error (fault.ErrInvalidOps) if the design
// emitted a structurally invalid op list — the run stops at the
// offending reference so one bad composition fails one sweep point,
// never the process. The trackers are complete once run returns, on
// every path out, a panic included.
func (s *SimState) run(src memtrace.Source, n int, pol ResizePolicy) (instrs, steps uint64, err error) {
	st, piped := newStepper(s.design, src, n, pol, s.ops, s.offT, s.stkT)
	defer st.close()
	if piped {
		if s.feed == nil {
			s.feed = new(feed)
		}
		st.readThrough(s.feed)
	}
	for st.next() {
	}
	s.ops = st.out.Ops
	return st.instrs, st.pos, st.err
}

// Warm replays n records through the design and trackers without
// measuring — the warmup phase of a functional or timing run, and the
// state a snapshot captures.
func (s *SimState) Warm(src memtrace.Source, n int) error {
	_, err := s.warm(src, n)
	return err
}

// warm is Warm reporting how many records it stepped: fewer than n
// when the source ended or failed first.
func (s *SimState) warm(src memtrace.Source, n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	_, steps, err := s.run(src, n, nil)
	return int(steps), err
}

// Measure runs up to maxRefs records (maxRefs <= 0 drains the source)
// from the current state and returns the result, with all counters
// relative to the state at entry. The installed resize policy
// (SetPolicy) decides partition splits at its epoch boundaries
// exactly as RunFunctionalResized documents. A typed error
// (fault.ErrInvalidOps) reports a design that emitted a malformed op
// list; the partial result accompanies it for diagnostics but must not
// be reported as a measurement.
func (s *SimState) Measure(src memtrace.Source, maxRefs int) (FunctionalResult, error) {
	ctr0 := s.design.Counters()
	off0, stk0 := s.offT.Stats, s.stkT.Stats
	extra := footprintExtra(s.design)
	var fp0 core.Stats
	if extra != nil {
		fp0 = extra()
	}
	part := partitionExtra(s.design)
	var pt0 dcache.PartitionStats
	if part != nil {
		pt0 = part()
	}

	res := FunctionalResult{Design: s.design.Name()}
	instrs, _, err := s.run(src, maxRefs, s.pol)
	res.Instructions = instrs
	res.Counters = s.design.Counters().Sub(ctr0)
	res.Refs = res.Counters.Accesses()
	res.OffChip = s.offT.Stats.Sub(off0)
	res.Stacked = s.stkT.Stats.Sub(stk0)
	if extra != nil {
		st := extra().Sub(fp0)
		res.Footprint = &st
	}
	if part != nil {
		st := part().Sub(pt0)
		res.Partition = &st
	}
	return res, err
}

// SnapshotMeta identifies the run a warm state was built from:
// everything outside the design spec that determines post-warmup
// state. Restore requires an exact match, so a snapshot taken under
// one (workload, seed, scale, warmup) can never silently continue a
// different run — the same guarantee WarmCache gets from its content
// key, enforced again inside the snapshot itself.
type SnapshotMeta struct {
	// Workload names the trace source (a label for replayed trace
	// files; the generator profile for synthetic runs).
	Workload string
	// Seed and Scale pin the generated reference stream.
	Seed  int64
	Scale float64
	// WarmupRefs is the warmup prefix length the state consumed.
	WarmupRefs int
	// TraceID names the trace content a state was captured from (the
	// trace file's content hash). It is empty for generator warmup
	// snapshots, so a state warmed on one stream can never silently
	// continue another.
	TraceID string
}

// Snapshot serializes the complete warm state — run identity, design,
// and DRAM trackers — as one versioned envelope. The design must
// support snapshots (every design BuildDesign produces does).
func (s *SimState) Snapshot(w io.Writer, meta SnapshotMeta) error {
	ds, ok := s.design.(dcache.DesignState)
	if !ok {
		//fplint:ignore faulterr caller misconfiguration, not a damaged artifact; ClassUnknown (no quarantine) is right
		return fmt.Errorf("system: design %q does not support snapshots", s.design.Name())
	}
	return snap.WriteEnvelope(w, warmStateKind, warmStateVersion, func(sw *snap.Writer) {
		sw.String(s.design.Name())
		sw.String(meta.Workload)
		sw.I64(meta.Seed)
		sw.U64(math.Float64bits(meta.Scale))
		sw.I64(int64(meta.WarmupRefs))
		sw.String(meta.TraceID)
		ds.SaveState(sw)
		s.offT.Save(sw)
		s.stkT.Save(sw)
	})
}

// Restore replaces the state with a snapshot written by Snapshot. The
// state must have been freshly built from the same design spec, and
// want must match the snapshot's run identity exactly; the envelope
// version, design name, and every component geometry are validated
// besides.
func (s *SimState) Restore(r io.Reader, want SnapshotMeta) error {
	ds, ok := s.design.(dcache.DesignState)
	if !ok {
		//fplint:ignore faulterr caller misconfiguration, not a damaged artifact; ClassUnknown (no quarantine) is right
		return fmt.Errorf("system: design %q does not support snapshots", s.design.Name())
	}
	return snap.ReadEnvelope(r, warmStateKind, warmStateVersion, func(sr *snap.Reader) error {
		if name := sr.String(); sr.Err() == nil && name != s.design.Name() {
			return fmt.Errorf("system: snapshot of design %q, want %q: %w", name, s.design.Name(), fault.ErrCorruptSnapshot)
		}
		got := SnapshotMeta{Workload: sr.String(), Seed: sr.I64()}
		got.Scale = math.Float64frombits(sr.U64())
		got.WarmupRefs = int(sr.I64())
		got.TraceID = sr.String()
		if sr.Err() == nil && got != want {
			return fmt.Errorf("system: snapshot of run %+v, want %+v: %w", got, want, fault.ErrCorruptSnapshot)
		}
		if err := ds.LoadState(sr); err != nil {
			return err
		}
		if err := s.offT.Load(sr); err != nil {
			return err
		}
		return s.stkT.Load(sr)
	})
}
