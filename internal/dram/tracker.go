package dram

import "fpcache/internal/memtrace"

// Tracker is the functional (untimed) DRAM model: it follows
// row-buffer state across accesses so functional simulations can
// account activates, bursts, and row-hit ratios — the inputs to the
// energy model — without running the event-driven timing simulator.
type Tracker struct {
	cfg      Config
	dec      decoder
	openRows [][]int64 // [channel][bank] open row, -1 = closed
	Stats    Stats
}

// NewTracker builds a functional model for cfg.
func NewTracker(cfg Config) *Tracker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &Tracker{cfg: cfg, dec: newDecoder(&cfg)}
	t.openRows = make([][]int64, cfg.Channels)
	for ch := range t.openRows {
		rows := make([]int64, cfg.BanksPerChan)
		for b := range rows {
			rows[b] = -1
		}
		t.openRows[ch] = rows
	}
	return t
}

// Config returns the model's configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Access models a transfer of the given size starting at addr,
// updating row-buffer state and stats. Multi-block transfers touch
// consecutive 64B blocks; blocks on the same open row share one
// activation (this is what makes page fills/evictions cheap on
// open-page systems, §2.3). The blocks up to the next interleave-chunk
// or row boundary share (channel, bank, row), so each such run is
// accounted at once.
func (t *Tracker) Access(addr memtrace.Addr, bytes int, write bool) {
	if bytes <= 0 {
		return
	}
	for blocks := (uint64(bytes) + 63) / 64; blocks > 0; {
		left := t.dec.runBytes - uint64(addr)&(t.dec.runBytes-1)
		n := min(blocks, (left+63)/64)
		t.accessRun(addr, n, write)
		addr += memtrace.Addr(n * 64)
		blocks -= n
	}
}

// AccessBlocks models a transfer of a sparse set of 64B blocks within
// a region starting at base: exactly the shape of a footprint fetch.
// bits' set positions select blocks (bit i -> base + 64*i).
func (t *Tracker) AccessBlocks(base memtrace.Addr, bits uint64, write bool) {
	for i := 0; bits != 0; i, bits = i+1, bits>>1 {
		if bits&1 != 0 {
			t.accessRun(base+memtrace.Addr(i*64), 1, write)
		}
	}
}

// accessRun accounts n consecutive 64B blocks from addr that share one
// (channel, bank, row). The first is classified against the bank's
// row register; the rest find the row the first left behind: open
// (row hits) under open-page, closed (misses that activate) under
// close-page.
func (t *Tracker) accessRun(addr memtrace.Addr, n uint64, write bool) {
	loc := t.dec.decode(addr)
	open := &t.openRows[loc.Channel][loc.Bank]
	switch {
	case *open == loc.Row:
		t.Stats.RowHits++
	case *open < 0:
		t.Stats.RowMisses++
		t.Stats.Activates++
	default:
		t.Stats.RowConflict++
		t.Stats.Activates++
	}
	if t.cfg.Policy == ClosePage {
		*open = -1
		t.Stats.RowMisses += n - 1
		t.Stats.Activates += n - 1
	} else {
		*open = loc.Row
		t.Stats.RowHits += n - 1
	}
	if write {
		t.Stats.WriteBursts += n
	} else {
		t.Stats.ReadBursts += n
	}
}
