package sram

import (
	"fmt"

	"fpcache/internal/fault"
	"fpcache/internal/snap"
)

// The serialized layout below is pinned by the fplint snapmeta
// analyzer; versioning lives in the enclosing envelope
// (dcache.SnapshotVersion), so a fingerprint change means refreshing
// this directive, and bumping that const too only if the bytes Save
// writes changed.
//
//fplint:snapfields 0x551a8fdb

// Save serializes the container — geometry, LRU clock, stats, and
// every entry including its exact LRU timestamp — so a restored array
// replays future accesses identically to the original. enc writes one
// payload; it must be the inverse of the dec passed to Load.
func (c *SetAssoc[V]) Save(w *snap.Writer, enc func(*snap.Writer, *V)) {
	w.Tag("sram")
	w.U64(uint64(c.sets))
	w.U64(uint64(c.ways))
	w.U64(c.clock)
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Evictions)
	for i := range c.data {
		e := &c.data[i]
		w.Bool(e.valid)
		if e.valid {
			w.U64(e.Tag)
			w.U64(e.used)
			enc(w, &e.Value)
		}
	}
}

// Load restores a snapshot written by Save into a container of the
// same geometry, replacing all current contents. A geometry mismatch
// (the snapshot came from a differently configured structure) fails
// without touching the container.
func (c *SetAssoc[V]) Load(r *snap.Reader, dec func(*snap.Reader, *V)) error {
	r.Expect("sram")
	sets, ways := int(r.U64()), int(r.U64())
	if err := r.Err(); err != nil {
		return err
	}
	if sets != c.sets || ways != c.ways {
		return fmt.Errorf("sram: snapshot geometry %dx%d, have %dx%d: %w", sets, ways, c.sets, c.ways, fault.ErrCorruptSnapshot)
	}
	c.clock = r.U64()
	c.Hits = r.U64()
	c.Misses = r.U64()
	c.Evictions = r.U64()
	for i := range c.data {
		e := &c.data[i]
		*e = Entry[V]{way: uint32(i % c.ways)}
		if r.Bool() {
			e.valid = true
			e.Tag = r.U64()
			e.used = r.U64()
			dec(r, &e.Value)
		}
		if err := r.Err(); err != nil {
			return err
		}
	}
	return r.Err()
}
