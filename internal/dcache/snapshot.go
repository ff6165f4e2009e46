package dcache

import (
	"fmt"
	"io"

	"fpcache/internal/fault"
	"fpcache/internal/snap"
)

// This file implements warm-state snapshot/restore for every design
// BuildDesign can produce. A snapshot captures the complete functional
// state of a design — tag arrays with exact LRU ordering, counters,
// policy tables (FHT, ST, hot-page filter), and the partition split —
// so a restored design replays any future reference stream
// byte-identically to the design that was snapshotted.
//
// Wire shape: a versioned snap envelope wrapping tagged sections. Each
// component writes an identity tag plus its configuration fingerprint
// and validates both on load, so restoring a snapshot into a design
// built from a different spec fails loudly instead of silently
// diverging.

// SnapshotVersion is the warm-state snapshot format version; bump it
// whenever any component's serialized layout changes. Content-keyed
// snapshot caches include it in their keys, so a version bump simply
// invalidates old cache entries. The fplint snapmeta analyzer pins the
// serialized structs' field layout to the fingerprint below; if it
// fires, refresh the directive, and bump this const (with the codec)
// only if the bytes the codec writes changed. Version 3 dropped the
// Singleton Table's correction counter, which duplicated the footprint
// policy's STCorrections statistic.
//
//fplint:snapfields 0x21ff85e3
const SnapshotVersion = 3

// snapshotKind is the envelope kind of a standalone design snapshot.
const snapshotKind = "fpcache-design"

// Snapshotter is implemented by designs whose warm state can be
// serialized and restored. Restore must only be called on a freshly
// built design of the same spec; it replaces all functional state.
type Snapshotter interface {
	Snapshot(w io.Writer) error
	Restore(r io.Reader) error
}

// DesignState is the composition-level face of the snapshot subsystem:
// SaveState/LoadState serialize a design's state as tagged sections
// inside an envelope some caller owns, which is how wrapper designs
// (gates, partitions) and the system layer's warm-state container
// embed component states in one stream. Snapshot/Restore (Snapshotter)
// are the standalone form — an envelope around SaveState/LoadState.
type DesignState interface {
	Design
	SaveState(*snap.Writer)
	LoadState(*snap.Reader) error
}

// SnapshotDesign writes d's warm state to w as a standalone snapshot.
// Designs that carry no serializable state report an error.
func SnapshotDesign(w io.Writer, d Design) error {
	ds, ok := d.(DesignState)
	if !ok {
		return fmt.Errorf("dcache: design %q does not support snapshots", d.Name())
	}
	return snap.WriteEnvelope(w, snapshotKind, SnapshotVersion, func(sw *snap.Writer) {
		sw.String(d.Name())
		ds.SaveState(sw)
	})
}

// RestoreDesign restores a standalone snapshot into a freshly built d,
// validating the envelope version and the design name.
func RestoreDesign(r io.Reader, d Design) error {
	ds, ok := d.(DesignState)
	if !ok {
		return fmt.Errorf("dcache: design %q does not support snapshots", d.Name())
	}
	return snap.ReadEnvelope(r, snapshotKind, SnapshotVersion, func(sr *snap.Reader) error {
		if name := sr.String(); sr.Err() == nil && name != d.Name() {
			return fmt.Errorf("dcache: snapshot of design %q, want %q: %w", name, d.Name(), fault.ErrCorruptSnapshot)
		}
		return ds.LoadState(sr)
	})
}

// AllocState is implemented by allocation policies that carry warm
// state (the footprint predictor's FHT and ST). Stateless policies
// simply do not implement it.
type AllocState interface {
	SaveState(*snap.Writer)
	LoadState(*snap.Reader) error
}

// saveCounters / loadCounters serialize Counters in declaration order.
func saveCounters(w *snap.Writer, c *Counters) {
	w.U64(c.Reads)
	w.U64(c.Writes)
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Bypasses)
	w.U64(c.PageAllocs)
	w.U64(c.PageEvicts)
	w.U64(c.DirtyEvicts)
}

func loadCounters(r *snap.Reader, c *Counters) {
	c.Reads = r.U64()
	c.Writes = r.U64()
	c.Hits = r.U64()
	c.Misses = r.U64()
	c.Bypasses = r.U64()
	c.PageAllocs = r.U64()
	c.PageEvicts = r.U64()
	c.DirtyEvicts = r.U64()
}

// savePageMeta / loadPageMeta are the tag-array payload codec shared
// by every page-granularity design.
func savePageMeta(w *snap.Writer, m *PageMeta) {
	w.U64(m.Valid)
	w.U64(m.Dirty)
	w.U64(m.Demanded)
	w.I64(int64(m.FHTPtr))
	w.U64(m.Predicted)
	w.U64(uint64(m.Freq))
	w.Bool(m.Spread)
}

func loadPageMeta(r *snap.Reader, m *PageMeta) {
	m.Valid = r.U64()
	m.Dirty = r.U64()
	m.Demanded = r.U64()
	m.FHTPtr = int32(r.I64())
	m.Predicted = r.U64()
	m.Freq = uint32(r.U64())
	m.Spread = r.Bool()
}

// --- Baseline / Ideal -------------------------------------------------

// SaveState implements DesignState.
func (b *Baseline) SaveState(w *snap.Writer) {
	w.Tag("baseline")
	saveCounters(w, &b.ctr)
}

// LoadState implements DesignState.
func (b *Baseline) LoadState(r *snap.Reader) error {
	r.Expect("baseline")
	loadCounters(r, &b.ctr)
	return r.Err()
}

// Snapshot implements Snapshotter.
func (b *Baseline) Snapshot(w io.Writer) error { return SnapshotDesign(w, b) }

// Restore implements Snapshotter.
func (b *Baseline) Restore(r io.Reader) error { return RestoreDesign(r, b) }

// SaveState implements DesignState.
func (i *Ideal) SaveState(w *snap.Writer) {
	w.Tag("ideal")
	saveCounters(w, &i.ctr)
}

// LoadState implements DesignState.
func (i *Ideal) LoadState(r *snap.Reader) error {
	r.Expect("ideal")
	loadCounters(r, &i.ctr)
	return r.Err()
}

// Snapshot implements Snapshotter.
func (i *Ideal) Snapshot(w io.Writer) error { return SnapshotDesign(w, i) }

// Restore implements Snapshotter.
func (i *Ideal) Restore(r io.Reader) error { return RestoreDesign(r, i) }

// --- BlockCache (in-DRAM tags + MissMap) ------------------------------

// SaveState implements DesignState: the modelled in-DRAM block tags,
// the SRAM MissMap, and the counters.
func (b *BlockCache) SaveState(w *snap.Writer) {
	w.Tag("block")
	w.U64(uint64(b.rows))
	w.U64(uint64(b.mmSets))
	saveCounters(w, &b.ctr)
	w.U64(b.ForcedEvicts)
	b.blocks.Save(w, func(sw *snap.Writer, m *blockMeta) { sw.Bool(m.dirty) })
	b.missMap.Save(w, func(sw *snap.Writer, v *uint64) { sw.U64(*v) })
}

// LoadState implements DesignState.
func (b *BlockCache) LoadState(r *snap.Reader) error {
	r.Expect("block")
	rows, mmSets := int(r.U64()), int(r.U64())
	if err := r.Err(); err != nil {
		return err
	}
	if rows != b.rows || mmSets != b.mmSets {
		return fmt.Errorf("dcache: block snapshot geometry (%d rows, %d missmap sets), have (%d, %d): %w",
			rows, mmSets, b.rows, b.mmSets, fault.ErrCorruptSnapshot)
	}
	loadCounters(r, &b.ctr)
	b.ForcedEvicts = r.U64()
	if err := b.blocks.Load(r, func(sr *snap.Reader, m *blockMeta) { m.dirty = sr.Bool() }); err != nil {
		return err
	}
	return b.missMap.Load(r, func(sr *snap.Reader, v *uint64) { *v = sr.U64() })
}

// Snapshot implements Snapshotter.
func (b *BlockCache) Snapshot(w io.Writer) error { return SnapshotDesign(w, b) }

// Restore implements Snapshotter.
func (b *BlockCache) Restore(r io.Reader) error { return RestoreDesign(r, b) }

// --- Engine -----------------------------------------------------------

// SaveState implements DesignState: geometry fingerprint, live-set
// count (the partition split's engine half), counters, the tag array,
// and the allocation policy's tables.
func (e *Engine) SaveState(w *snap.Writer) {
	w.Tag("engine")
	w.String(e.name)
	w.I64(e.geom.CapacityBytes)
	w.U64(uint64(e.geom.PageBytes))
	w.U64(uint64(e.geom.Ways))
	w.Bool(e.consistent)
	w.U64(uint64(e.liveSets))
	saveCounters(w, &e.ctr)
	e.tags.Save(w, savePageMeta)
	if ps, ok := e.alloc.(AllocState); ok {
		w.Bool(true)
		ps.SaveState(w)
	} else {
		w.Bool(false)
	}
}

// LoadState implements DesignState.
func (e *Engine) LoadState(r *snap.Reader) error {
	r.Expect("engine")
	name := r.String()
	capBytes := r.I64()
	pageBytes, ways := int(r.U64()), int(r.U64())
	consistent := r.Bool()
	liveSets := int(r.U64())
	if err := r.Err(); err != nil {
		return err
	}
	if name != e.name {
		return fmt.Errorf("dcache: engine snapshot of %q, want %q: %w", name, e.name, fault.ErrCorruptSnapshot)
	}
	if capBytes != e.geom.CapacityBytes || pageBytes != e.geom.PageBytes || ways != e.geom.Ways || consistent != e.consistent {
		return fmt.Errorf("dcache: engine snapshot geometry (%dB, %dB pages, %d ways, consistent=%v) does not match (%dB, %dB, %d, %v): %w",
			capBytes, pageBytes, ways, consistent, e.geom.CapacityBytes, e.geom.PageBytes, e.geom.Ways, e.consistent, fault.ErrCorruptSnapshot)
	}
	if liveSets < 1 || liveSets > e.sets {
		return fmt.Errorf("dcache: engine snapshot live sets %d out of range [1,%d]: %w", liveSets, e.sets, fault.ErrCorruptSnapshot)
	}
	e.liveSets = liveSets
	loadCounters(r, &e.ctr)
	if err := e.tags.Load(r, loadPageMeta); err != nil {
		return err
	}
	hasPolicy := r.Bool()
	ps, ok := e.alloc.(AllocState)
	if hasPolicy != ok {
		return fmt.Errorf("dcache: engine snapshot policy state %v, design policy %q stateful %v: %w",
			hasPolicy, e.alloc.Name(), ok, fault.ErrCorruptSnapshot)
	}
	if hasPolicy {
		return ps.LoadState(r)
	}
	return r.Err()
}

// Snapshot implements Snapshotter.
func (e *Engine) Snapshot(w io.Writer) error { return SnapshotDesign(w, e) }

// Restore implements Snapshotter.
func (e *Engine) Restore(r io.Reader) error { return RestoreDesign(r, e) }

// --- Gate -------------------------------------------------------------

// SaveState implements DesignState: the gate's own counters, the
// touch-count filter, and the wrapped engine.
func (g *Gate) SaveState(w *snap.Writer) {
	w.Tag("gate")
	w.String(g.name)
	saveCounters(w, &g.ctr)
	g.filter.Save(w, func(sw *snap.Writer, v *uint32) { sw.U64(uint64(*v)) })
	g.inner.SaveState(w)
}

// LoadState implements DesignState.
func (g *Gate) LoadState(r *snap.Reader) error {
	r.Expect("gate")
	if name := r.String(); r.Err() == nil && name != g.name {
		return fmt.Errorf("dcache: gate snapshot of %q, want %q: %w", name, g.name, fault.ErrCorruptSnapshot)
	}
	loadCounters(r, &g.ctr)
	if err := g.filter.Load(r, func(sr *snap.Reader, v *uint32) { *v = uint32(sr.U64()) }); err != nil {
		return err
	}
	return g.inner.LoadState(r)
}

// Snapshot implements Snapshotter.
func (g *Gate) Snapshot(w io.Writer) error { return SnapshotDesign(w, g) }

// Restore implements Snapshotter.
func (g *Gate) Restore(r io.Reader) error { return RestoreDesign(r, g) }

// --- Partitioned ------------------------------------------------------

// SaveState implements DesignState: the memory-region counters and
// split, then the wrapped cache slice (whose engine section carries
// the live-set half of the split).
func (p *Partitioned) SaveState(w *snap.Writer) {
	w.Tag("partition")
	w.String(p.name)
	saveCounters(w, &p.ctr)
	s := &p.pstats
	w.U64(s.MemHits)
	w.U64(s.Resizes)
	w.U64(s.FlushedClean)
	w.U64(s.FlushedDirty)
	w.U64(s.MovedPages)
	w.U64(s.DisplacedPages)
	w.U64(s.PurgedPages)
	w.I64(p.memPages)
	inner, ok := p.inner.(DesignState)
	if !ok {
		// NewPartitioned only accepts engine-backed inners, all of which
		// implement DesignState; this guards future wrapper types.
		panic(fmt.Sprintf("dcache: partition inner %q does not support snapshots", p.inner.Name()))
	}
	inner.SaveState(w)
}

// LoadState implements DesignState.
func (p *Partitioned) LoadState(r *snap.Reader) error {
	r.Expect("partition")
	if name := r.String(); r.Err() == nil && name != p.name {
		return fmt.Errorf("dcache: partition snapshot of %q, want %q: %w", name, p.name, fault.ErrCorruptSnapshot)
	}
	loadCounters(r, &p.ctr)
	s := &p.pstats
	s.MemHits = r.U64()
	s.Resizes = r.U64()
	s.FlushedClean = r.U64()
	s.FlushedDirty = r.U64()
	s.MovedPages = r.U64()
	s.DisplacedPages = r.U64()
	s.PurgedPages = r.U64()
	memPages := r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if memPages < 0 || memPages >= p.totalPages {
		return fmt.Errorf("dcache: partition snapshot memory split %d of %d pages out of range: %w",
			memPages, p.totalPages, fault.ErrCorruptSnapshot)
	}
	p.memPages = memPages
	inner, ok := p.inner.(DesignState)
	if !ok {
		return fmt.Errorf("dcache: partition inner %q does not support snapshots", p.inner.Name())
	}
	return inner.LoadState(r)
}

// Snapshot implements Snapshotter.
func (p *Partitioned) Snapshot(w io.Writer) error { return SnapshotDesign(w, p) }

// Restore implements Snapshotter.
func (p *Partitioned) Restore(r io.Reader) error { return RestoreDesign(r, p) }
