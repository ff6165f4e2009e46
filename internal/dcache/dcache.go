// Package dcache defines the DRAM-cache design interface and
// implements the paper's comparison designs: the no-cache baseline,
// the block-based cache (Loh–Hill MissMap organization), the
// page-based cache, the sub-blocked cache (allocate pages, fetch on
// demand), the ideal cache, and a CHOP-like hot-page filter cache.
//
// The paper's contribution — Footprint Cache — lives in
// internal/core and implements the same Design interface.
//
// Designs are functional state machines: each Access returns an
// Outcome describing the DRAM operations the access triggers (with
// criticality and dependency structure). The functional runner feeds
// those operations to dram.Tracker for traffic/energy accounting; the
// timing runner turns them into dram.Controller transactions. One
// implementation therefore serves both simulation modes.
package dcache

import (
	"fmt"
	"math/bits"

	"fpcache/internal/memtrace"
)

// Level selects which DRAM subsystem an operation targets.
type Level uint8

const (
	// Stacked is the die-stacked DRAM cache array.
	Stacked Level = iota
	// OffChip is main memory.
	OffChip
)

// String implements fmt.Stringer.
func (l Level) String() string {
	if l == Stacked {
		return "stacked"
	}
	return "offchip"
}

// NoDep marks an operation with no dependency.
const NoDep = -1

// Op is one DRAM transaction triggered by a cache access. Its fields
// are ordered, and Level and DependsOn narrowed, so that an Op packs
// into 24 bytes: the timing demux buffers every queued record's ops.
type Op struct {
	Addr  memtrace.Addr
	Bytes int
	Level Level
	Write bool
	// Critical operations are on the requestor's latency path; the
	// access completes when all critical ops complete. Non-critical
	// ops (fills, evictions, tag updates) only consume bandwidth.
	Critical bool
	// DependsOn is the index within the same Outcome of an op that
	// must complete before this one issues, or NoDep.
	DependsOn int32
}

// Outcome describes everything one access caused.
type Outcome struct {
	// Hit reports whether the access was served by the stacked DRAM.
	Hit bool
	// Bypass reports a miss served directly from memory without
	// allocation (singleton bypass, hot-page filtering).
	Bypass bool
	// TagCycles is the SRAM metadata lookup latency preceding any op.
	TagCycles int
	Ops       []Op
}

// Design is a DRAM cache organization.
type Design interface {
	// Name identifies the design in reports.
	Name() string
	// Access processes one L2-miss record and returns its outcome.
	//
	// ops is a caller-provided scratch buffer: implementations append
	// the access's DRAM operations to ops[:0] and return an Outcome
	// whose Ops field aliases it (grown if needed). Callers on the hot
	// path reuse the returned Outcome.Ops as the next call's scratch,
	// so steady-state accesses allocate nothing; passing nil is always
	// valid when allocation does not matter. The returned Ops are only
	// valid until the next Access with the same buffer.
	//
	// The fplint hotpath analyzer enforces the zero-allocation contract
	// on every implementation and everything they call.
	//
	//fplint:hotpath
	Access(rec memtrace.Record, ops []Op) Outcome
	// Counters exposes accumulated access statistics.
	Counters() Counters
	// MetadataBits returns the SRAM metadata budget (tags, MissMap,
	// prediction tables) in bits, for Table 4.
	MetadataBits() int64
}

// Counters accumulates design-independent access statistics.
type Counters struct {
	Reads, Writes uint64
	Hits          uint64
	Misses        uint64
	Bypasses      uint64 // subset of Misses served without allocation
	PageAllocs    uint64
	PageEvicts    uint64
	DirtyEvicts   uint64
}

// Accesses returns the total number of accesses.
func (c Counters) Accesses() uint64 { return c.Reads + c.Writes }

// MissRatio returns misses / accesses.
func (c Counters) MissRatio() float64 {
	t := c.Accesses()
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}

// HitRatio returns hits / accesses.
func (c Counters) HitRatio() float64 {
	t := c.Accesses()
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}

// Add returns c plus o, used by wrapper designs that split accounting
// across two paths (the partition wrapper counts its memory-region
// accesses itself and delegates the rest to the cache engine).
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Reads:       c.Reads + o.Reads,
		Writes:      c.Writes + o.Writes,
		Hits:        c.Hits + o.Hits,
		Misses:      c.Misses + o.Misses,
		Bypasses:    c.Bypasses + o.Bypasses,
		PageAllocs:  c.PageAllocs + o.PageAllocs,
		PageEvicts:  c.PageEvicts + o.PageEvicts,
		DirtyEvicts: c.DirtyEvicts + o.DirtyEvicts,
	}
}

// Sub returns c minus o, used to exclude warmup from measurements.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Reads:       c.Reads - o.Reads,
		Writes:      c.Writes - o.Writes,
		Hits:        c.Hits - o.Hits,
		Misses:      c.Misses - o.Misses,
		Bypasses:    c.Bypasses - o.Bypasses,
		PageAllocs:  c.PageAllocs - o.PageAllocs,
		PageEvicts:  c.PageEvicts - o.PageEvicts,
		DirtyEvicts: c.DirtyEvicts - o.DirtyEvicts,
	}
}

func (c *Counters) record(rec memtrace.Record) {
	if rec.Write {
		c.Writes++
	} else {
		c.Reads++
	}
}

// criticality returns whether a demand access of the given kind is on
// the latency path: reads are, L2 writebacks are posted.
func criticality(write bool) bool { return !write }

// ValidateOps checks structural invariants every Outcome must satisfy:
// dependencies precede their dependents, sizes are positive 64B
// multiples, and critical ops never depend on non-critical ones (a
// request's completion must not wait on background traffic).
func ValidateOps(ops []Op) error {
	for i, op := range ops {
		if op.DependsOn != NoDep && (op.DependsOn < 0 || int(op.DependsOn) >= i) {
			return fmt.Errorf("op %d depends on %d (must precede it)", i, op.DependsOn)
		}
		if op.Bytes <= 0 || op.Bytes%64 != 0 {
			return fmt.Errorf("op %d moves %d bytes (must be positive 64B multiple)", i, op.Bytes)
		}
		if op.Critical && op.DependsOn != NoDep && !ops[op.DependsOn].Critical {
			return fmt.Errorf("op %d is critical but depends on non-critical op %d", i, op.DependsOn)
		}
	}
	return nil
}

// popcount returns the number of set bits.
func popcount(v uint64) int { return bits.OnesCount64(v) }

// trailingZeros returns the index of the lowest set bit.
func trailingZeros(v uint64) int { return bits.TrailingZeros64(v) }

// Baseline is the system without a DRAM cache: every L2 miss goes to
// off-chip memory.
type Baseline struct {
	ctr Counters
}

// NewBaseline returns the no-cache design.
func NewBaseline() *Baseline { return &Baseline{} }

// Name implements Design.
func (b *Baseline) Name() string { return "baseline" }

// MetadataBits implements Design.
func (b *Baseline) MetadataBits() int64 { return 0 }

// Counters implements Design.
func (b *Baseline) Counters() Counters { return b.ctr }

// Access implements Design.
func (b *Baseline) Access(rec memtrace.Record, ops []Op) Outcome {
	b.ctr.record(rec)
	b.ctr.Misses++
	ops = append(ops[:0], Op{
		Level: OffChip, Addr: rec.Addr, Bytes: 64,
		Write: rec.Write, Critical: criticality(rec.Write), DependsOn: NoDep,
	})
	return Outcome{Ops: ops}
}

// Ideal is the paper's upper bound: a die-stacked cache that never
// misses and has no tag overhead (§6.3: "die-stacked main memory").
type Ideal struct {
	ctr Counters
}

// NewIdeal returns the never-miss design.
func NewIdeal() *Ideal { return &Ideal{} }

// Name implements Design.
func (i *Ideal) Name() string { return "ideal" }

// MetadataBits implements Design.
func (i *Ideal) MetadataBits() int64 { return 0 }

// Counters implements Design.
func (i *Ideal) Counters() Counters { return i.ctr }

// Access implements Design.
func (i *Ideal) Access(rec memtrace.Record, ops []Op) Outcome {
	i.ctr.record(rec)
	i.ctr.Hits++
	ops = append(ops[:0], Op{
		Level: Stacked, Addr: rec.Addr, Bytes: 64,
		Write: rec.Write, Critical: criticality(rec.Write), DependsOn: NoDep,
	})
	return Outcome{Hit: true, Ops: ops}
}
