package dram

import (
	"math/bits"

	"fpcache/internal/memtrace"
)

// Location identifies where an address lands in the DRAM subsystem.
type Location struct {
	Channel int
	Bank    int
	Row     int64
}

// Decode maps a physical address to its channel, bank, and row using
// the configured channel interleaving: consecutive InterleaveBytes
// chunks rotate across channels; within a channel, consecutive rows
// rotate across banks. Hot paths hold a decoder built once instead.
func (c Config) Decode(addr memtrace.Addr) Location {
	d := newDecoder(&c)
	return d.decode(addr)
}

// decoder is a Config's address mapping with its divisors
// precomputed: InterleaveBytes and RowBytes are powers of two
// (Validate), so they are shifts and masks; the channel and bank
// counts are too when they are powers of two.
type decoder struct {
	ilvShift, rowShift uint
	ilvMask            uint64
	chans, banks       divisor
	// runBytes is the span of a (channel, bank, row) run: addresses in
	// one aligned runBytes block share a chunk and a row.
	runBytes uint64
}

func newDecoder(c *Config) decoder {
	return decoder{
		ilvShift: uint(bits.TrailingZeros64(uint64(c.InterleaveBytes))),
		rowShift: uint(bits.TrailingZeros64(uint64(c.RowBytes))),
		ilvMask:  uint64(c.InterleaveBytes) - 1,
		chans:    newDivisor(c.Channels),
		banks:    newDivisor(c.BanksPerChan),
		runBytes: uint64(min(c.InterleaveBytes, c.RowBytes)),
	}
}

func (d *decoder) decode(addr memtrace.Addr) Location {
	a := uint64(addr)
	chunkInChan, ch := d.chans.divmod(a >> d.ilvShift)
	inChan := chunkInChan<<d.ilvShift | a&d.ilvMask
	row, bank := d.banks.divmod(inChan >> d.rowShift)
	return Location{Channel: int(ch), Bank: int(bank), Row: int64(row)}
}

// divisor divides by a fixed positive n: by shift and mask when n is
// a power of two, by hardware division otherwise.
type divisor struct {
	n     uint64
	shift uint
	pow2  bool
}

func newDivisor(n int) divisor {
	u := uint64(n)
	return divisor{n: u, shift: uint(bits.TrailingZeros64(u)), pow2: u&(u-1) == 0}
}

func (d divisor) divmod(x uint64) (q, r uint64) {
	if d.pow2 {
		return x >> d.shift, x & (d.n - 1)
	}
	return x / d.n, x % d.n
}

// RowSpan reports how many distinct rows the byte range [addr,
// addr+bytes) touches within its channel mapping. With page
// interleaving and page <= row size this is 1 for a page transfer —
// the property the paper's designs exploit (§2.3).
func (c Config) RowSpan(addr memtrace.Addr, bytes int) int {
	if bytes <= 0 {
		return 0
	}
	d := newDecoder(&c)
	seen := make(map[Location]struct{})
	for off := 0; off < bytes; off += 64 {
		loc := d.decode(addr + memtrace.Addr(off))
		seen[loc] = struct{}{}
	}
	return len(seen)
}
