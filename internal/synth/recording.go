package synth

import (
	"math/bits"
	"sync"

	"fpcache/internal/memtrace"
)

// A Recording is one generator's stream kept in memory, packed at 8
// bytes per record, so that any number of readers replay it instead of
// each regenerating it. It grows on demand: a reader past the recorded
// end extends it, under the recording's lock, in chunks of
// recordChunk records. Every reader therefore sees exactly the records
// a fresh generator for the same templates and scale would emit,
// however far it reads and in whatever order readers reach the end.
//
// The packing is exact because the generator's records obey
// invariants only this package knows, and Profile.Validate rejects a
// profile whose records would not fit 64 bits:
//
//   - Addr is block-aligned and below the dataset, so it is stored as
//     a block index;
//   - PC follows from the (class, pattern) template index, as
//     pcBase + class*pcClassStride + pattern*pcPatternStride;
//   - Core < Cores;
//   - 1 <= Gap <= 2*GapMean.
type Recording struct {
	prof Profile // the generator's scaled profile
	pack packing

	mu     sync.Mutex
	gen    *Generator
	chunks [][]uint64
	// stream marks a recording with one reader (NewStream): it keeps
	// only the chunk being read.
	stream bool
}

// recordChunk is the number of records a recording grows by at a
// time: 128 KiB of packed records, one lock round per reader.
const recordChunk = 1 << 14

// The generator's PC layout (reinitVisit).
const (
	pcBase          = 0x400000
	pcClassStride   = 0x10000
	pcPatternStride = 4
)

// packing is the bit layout of one packed record, low bits first:
// block index, PC slot ((PC-pcBase)/pcPatternStride), core, write,
// and Gap-1 in the top bits.
type packing struct {
	pcShift, coreShift, writeShift, gapShift uint
	blockMask, pcMask, coreMask              uint64
}

// packingFor derives the layout from the largest values the profile's
// records can take at any scale in (0,1], and the number of bits it
// needs.
func packingFor(p Profile) (packing, int) {
	regions := max(int64(float64(p.DatasetBytes))/RegionBytes, 16) // NewGenerator at scale 1
	blockBits := bits.Len64(uint64(regions)*BlocksPerRegion - 1)
	pcSlots := (uint64(len(p.Classes)-1)*pcClassStride + uint64(p.PatternsPerClass-1)*pcPatternStride) / pcPatternStride
	pcBits := bits.Len64(pcSlots)
	coreBits := bits.Len64(uint64(p.Cores - 1))
	gapBits := bits.Len64(uint64(2*p.GapMean - 1))
	pk := packing{
		pcShift:   uint(blockBits),
		blockMask: 1<<blockBits - 1,
		pcMask:    1<<pcBits - 1,
		coreMask:  1<<coreBits - 1,
	}
	pk.coreShift = pk.pcShift + uint(pcBits)
	pk.writeShift = pk.coreShift + uint(coreBits)
	pk.gapShift = pk.writeShift + 1
	return pk, int(pk.gapShift) + gapBits
}

func (pk *packing) pack(rec memtrace.Record) uint64 {
	w := uint64(rec.Addr)/64 | (uint64(rec.PC)-pcBase)/pcPatternStride<<pk.pcShift |
		uint64(rec.Core)<<pk.coreShift | uint64(rec.Gap-1)<<pk.gapShift
	if rec.Write {
		w |= 1 << pk.writeShift
	}
	return w
}

func (pk *packing) unpack(w uint64) memtrace.Record {
	return memtrace.Record{
		PC:    memtrace.PC(pcBase + (w>>pk.pcShift&pk.pcMask)*pcPatternStride),
		Addr:  memtrace.Addr(w&pk.blockMask) * 64,
		Core:  uint8(w >> pk.coreShift & pk.coreMask),
		Write: w>>pk.writeShift&1 != 0,
		Gap:   uint32(w>>pk.gapShift) + 1,
	}
}

// NewRecording starts an empty recording of the generator the table
// builds at the given capacity scale.
func (t *Templates) NewRecording(scale float64) (*Recording, error) {
	g, err := t.NewGenerator(scale)
	if err != nil {
		return nil, err
	}
	pk, _ := packingFor(t.prof)
	return &Recording{prof: g.Profile(), pack: pk, gen: g}, nil
}

// NewStream is NewRecording for a stream only one reader will read:
// the recording keeps just the chunk being read and refills that one
// buffer, so it costs generating plus packing, in constant memory. Its
// Replay may be called once.
func (t *Templates) NewStream(scale float64) (*Recording, error) {
	r, err := t.NewRecording(scale)
	if err != nil {
		return nil, err
	}
	r.stream = true
	return r, nil
}

// Profile returns the scaled profile of the recorded generator.
func (r *Recording) Profile() Profile { return r.prof }

// Replay returns a new reader at the first record.
func (r *Recording) Replay() *Replay { return &Replay{rec: r, pack: r.pack} }

// chunk returns chunk k, recording up to it first if needed.
func (r *Recording) chunk(k int) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.chunks) <= k {
		var c []uint64
		if n := len(r.chunks); r.stream && n > 0 {
			// The one reader has moved past the newest chunk.
			c, r.chunks[n-1] = r.chunks[n-1], nil
		} else {
			c = make([]uint64, recordChunk)
		}
		for i := range c {
			rec, _ := r.gen.Next()
			c[i] = r.pack.pack(rec)
		}
		r.chunks = append(r.chunks, c)
	}
	return r.chunks[k]
}

// Replay reads a Recording from its start; it implements
// memtrace.Source and never exhausts, like the generator. A Replay
// belongs to one goroutine; any number of them read one recording.
type Replay struct {
	rec  *Recording
	pack packing
	cur  []uint64 // chunk next-1, or nil before the first record
	i    int      // next record within cur
	// next is the index of the chunk after cur.
	next int
}

// Next implements memtrace.Source. Reading recorded chunks allocates
// nothing; the reader that first passes the recorded end allocates
// and generates the next chunk.
func (p *Replay) Next() (memtrace.Record, bool) {
	if p.i == len(p.cur) {
		p.cur, p.i = p.rec.chunk(p.next), 0
		p.next++
	}
	w := p.cur[p.i]
	p.i++
	return p.pack.unpack(w), true
}

// SkipRecords moves the reader n records ahead, recording up to there
// if needed, and returns how many it skipped (memtrace.Skip uses it).
func (p *Replay) SkipRecords(n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	at := p.next*recordChunk - len(p.cur) + p.i + n
	p.cur, p.i = p.rec.chunk(at/recordChunk), at%recordChunk
	p.next = at/recordChunk + 1
	return n, nil
}
