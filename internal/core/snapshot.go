package core

import (
	"fmt"

	"fpcache/internal/fault"
	"fpcache/internal/memtrace"
	"fpcache/internal/snap"
)

// Warm-state serialization for the Footprint predictor structures: the
// FHT and ST tables (contents, LRU ordering, and counters) plus the
// policy's accumulated statistics. dcache.Engine embeds this state in
// its own snapshot through the dcache.AllocState interface, which is
// also where the layout's version const lives (dcache.SnapshotVersion);
// the fplint snapmeta analyzer pins the serialized structs here.
//
//fplint:snapfields 0x3ef7d4e9

// Save serializes the FHT: table contents with LRU state, and the
// query/cold/update counters.
func (f *FHT) Save(w *snap.Writer) {
	w.Tag("fht")
	w.U64(f.Queries)
	w.U64(f.Cold)
	w.U64(f.Updates)
	f.arr.Save(w, func(sw *snap.Writer, v *uint64) { sw.U64(*v) })
}

// Load restores a snapshot written by Save.
func (f *FHT) Load(r *snap.Reader) error {
	r.Expect("fht")
	f.Queries = r.U64()
	f.Cold = r.U64()
	f.Updates = r.U64()
	return f.arr.Load(r, func(sr *snap.Reader, v *uint64) { *v = sr.U64() })
}

// Save serializes the ST: table contents with LRU state.
func (s *ST) Save(w *snap.Writer) {
	w.Tag("st")
	s.arr.Save(w, func(sw *snap.Writer, v *stEntry) {
		sw.U64(uint64(v.pc))
		sw.I64(int64(v.offset))
	})
}

// Load restores a snapshot written by Save.
func (s *ST) Load(r *snap.Reader) error {
	r.Expect("st")
	return s.arr.Load(r, func(sr *snap.Reader, v *stEntry) {
		v.pc = memtrace.PC(sr.U64())
		v.offset = int(sr.I64())
	})
}

// SaveState implements dcache.AllocState: the predictor statistics
// and both tables.
func (p *FootprintPolicy) SaveState(w *snap.Writer) {
	w.Tag("footprint-policy")
	w.String(p.cfg.VariantName())
	saveStats(w, &p.extra)
	p.fht.Save(w)
	p.st.Save(w)
}

// LoadState implements dcache.AllocState.
func (p *FootprintPolicy) LoadState(r *snap.Reader) error {
	r.Expect("footprint-policy")
	if v := r.String(); r.Err() == nil && v != p.cfg.VariantName() {
		return fmt.Errorf("core: snapshot of footprint variant %q, want %q: %w", v, p.cfg.VariantName(), fault.ErrCorruptSnapshot)
	}
	loadStats(r, &p.extra)
	if err := p.fht.Load(r); err != nil {
		return err
	}
	return p.st.Load(r)
}

// saveStats / loadStats serialize Stats in declaration order.
func saveStats(w *snap.Writer, s *Stats) {
	w.U64(s.UnderpredMisses)
	w.U64(s.SingletonBypasses)
	w.U64(s.STCorrections)
	w.U64(s.FHTCold)
	w.U64(s.CoveredBlocks)
	w.U64(s.UnderBlocks)
	w.U64(s.OverBlocks)
}

func loadStats(r *snap.Reader, s *Stats) {
	s.UnderpredMisses = r.U64()
	s.SingletonBypasses = r.U64()
	s.STCorrections = r.U64()
	s.FHTCold = r.U64()
	s.CoveredBlocks = r.U64()
	s.UnderBlocks = r.U64()
	s.OverBlocks = r.U64()
}
