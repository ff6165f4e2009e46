package dram

import (
	"fmt"

	"fpcache/internal/fault"
	"fpcache/internal/snap"
)

// The serialized layout below is pinned by the fplint snapmeta
// analyzer; versioning lives in the enclosing envelope (the system
// layer's warm-state version), so a fingerprint change means
// refreshing this directive, and bumping that const too only if the
// bytes Save writes changed.
//
//fplint:snapfields 0x76b00641

// Save serializes the functional model's warm state: open-row
// registers and accumulated stats. The configuration itself is not
// stored — a tracker is always rebuilt from the design's DRAM config
// before restoring — but its shape is, so a snapshot taken under a
// different channel/bank geometry fails loudly instead of silently
// misattributing row state.
func (t *Tracker) Save(w *snap.Writer) {
	w.Tag("dram-tracker")
	w.U64(uint64(len(t.openRows)))
	w.U64(uint64(t.cfg.BanksPerChan))
	for _, rows := range t.openRows {
		for _, row := range rows {
			w.I64(row)
		}
	}
	saveStats(w, &t.Stats)
}

// Load restores a snapshot written by Save.
func (t *Tracker) Load(r *snap.Reader) error {
	r.Expect("dram-tracker")
	ch, banks := int(r.U64()), int(r.U64())
	if err := r.Err(); err != nil {
		return err
	}
	if ch != len(t.openRows) || banks != t.cfg.BanksPerChan {
		return fmt.Errorf("dram: snapshot geometry %dch x %dbank, have %dch x %dbank: %w",
			ch, banks, len(t.openRows), t.cfg.BanksPerChan, fault.ErrCorruptSnapshot)
	}
	for _, rows := range t.openRows {
		for b := range rows {
			rows[b] = r.I64()
		}
	}
	return loadStats(r, &t.Stats)
}

// saveStats / loadStats serialize the Stats counters in declaration
// order.
func saveStats(w *snap.Writer, s *Stats) {
	w.U64(s.Activates)
	w.U64(s.ReadBursts)
	w.U64(s.WriteBursts)
	w.U64(s.RowHits)
	w.U64(s.RowMisses)
	w.U64(s.RowConflict)
	w.U64(s.Refreshes)
}

func loadStats(r *snap.Reader, s *Stats) error {
	s.Activates = r.U64()
	s.ReadBursts = r.U64()
	s.WriteBursts = r.U64()
	s.RowHits = r.U64()
	s.RowMisses = r.U64()
	s.RowConflict = r.U64()
	s.Refreshes = r.U64()
	return r.Err()
}
