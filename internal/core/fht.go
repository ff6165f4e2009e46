package core

import (
	"fmt"

	"fpcache/internal/memtrace"
	"fpcache/internal/sram"
)

// FHT is the Footprint History Table (§4.2): a set-associative SRAM
// structure indexed by (PC, offset) pairs, storing the footprint bit
// vector last generated by pages whose triggering miss came from that
// key. Its size is independent of the dataset — it captures a slice of
// the instruction working set, measured in kilobytes.
type FHT struct {
	arr  *sram.SetAssoc[uint64]
	sets int

	// Queries counts prediction lookups (page misses), Cold the
	// lookups that found no entry (start-of-execution behaviour,
	// §4.2), Updates the eviction-time feedback writes.
	Queries, Cold, Updates uint64
}

// NewFHT builds a table with the given geometry; entries must divide
// by ways.
func NewFHT(entries, ways int) (*FHT, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("core: FHT %d entries / %d ways invalid", entries, ways)
	}
	sets := entries / ways
	return &FHT{arr: sram.NewSetAssoc[uint64](sets, ways), sets: sets}, nil
}

// Entries returns the table capacity.
func (f *FHT) Entries() int { return f.arr.Sets() * f.arr.Ways() }

// key hashes a (PC, offset) pair into (set, tag). The full hash is
// kept as the tag; hardware would truncate it, trading rare aliasing
// for storage exactly as the paper's 144KB/16K-entry budget implies.
func (f *FHT) key(pc memtrace.PC, offset int) (set int, tag uint64) {
	h := (uint64(pc)*0x9E3779B97F4A7C15 ^ uint64(offset)*0xC2B2AE3D27D4EB4F) >> 1
	return int(h % uint64(f.sets)), h / uint64(f.sets)
}

// Ptr identifies an FHT slot so tag entries can link pages to the
// entry that predicted them (§4.2). Pointers can go stale after an
// FHT eviction; the paper tolerates that, and so do we.
type Ptr int32

// NoPtr marks a page with no live FHT link.
const NoPtr Ptr = -1

// Predict looks up the footprint for a triggering miss. It returns
// the predicted footprint (zero-valued on a cold miss), the slot
// pointer for eviction-time feedback, and whether the entry existed.
func (f *FHT) Predict(pc memtrace.PC, offset int) (footprint uint64, ptr Ptr, ok bool) {
	f.Queries++
	set, tag := f.key(pc, offset)
	if e := f.arr.Lookup(set, tag); e != nil {
		return e.Value, f.ptrOf(set, e), true
	}
	f.Cold++
	return 0, NoPtr, false
}

// Allocate installs a new entry for a cold-missing key with an
// initial footprint and returns its pointer.
func (f *FHT) Allocate(pc memtrace.PC, offset int, footprint uint64) Ptr {
	set, tag := f.key(pc, offset)
	e := f.arr.Lookup(set, tag)
	if e == nil {
		f.arr.Insert(set, tag, footprint)
		e = f.arr.Peek(set, tag)
	} else {
		e.Value = footprint
	}
	return f.ptrOf(set, e)
}

// Update writes eviction-time feedback through a pointer: the page's
// demanded vector replaces the stored footprint, keeping the FHT in
// harmony with the workload's phase (§4.2). A stale pointer updates
// whatever entry now lives in the slot — the paper measured no
// observable impact from this, because FHT content is stable.
func (f *FHT) Update(ptr Ptr, demanded uint64) {
	f.update(ptr, demanded, false)
}

// UpdateUnion is the FeedbackUnion variant: the demanded vector is
// ORed into the stored footprint instead of replacing it.
func (f *FHT) UpdateUnion(ptr Ptr, demanded uint64) {
	f.update(ptr, demanded, true)
}

func (f *FHT) update(ptr Ptr, demanded uint64, union bool) {
	if ptr == NoPtr || demanded == 0 {
		return
	}
	e := f.slot(ptr)
	if e == nil || !e.Valid() {
		return
	}
	f.Updates++
	if union {
		e.Value |= demanded
	} else {
		e.Value = demanded
	}
}

func (f *FHT) ptrOf(set int, e *sram.Entry[uint64]) Ptr {
	return Ptr(set*f.arr.Ways() + e.Way())
}

func (f *FHT) slot(ptr Ptr) *sram.Entry[uint64] {
	ways := f.arr.Ways()
	set := int(ptr) / ways
	if set < 0 || set >= f.sets {
		return nil
	}
	return f.arr.Slot(set, int(ptr)%ways)
}

// stEntry is a Singleton Table record: the key that predicted a page
// singleton, plus which offset it touched.
type stEntry struct {
	pc     memtrace.PC
	offset int
}

// ST is the Singleton Table (§4.4): a small structure indexed by page
// tag that remembers pages bypassed as singletons so a second access
// can be detected and corrected. 512 entries cost ~3KB.
type ST struct {
	arr  *sram.SetAssoc[stEntry]
	sets int
}

// NewST builds the table.
func NewST(entries, ways int) (*ST, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("core: ST %d entries / %d ways invalid", entries, ways)
	}
	sets := entries / ways
	return &ST{arr: sram.NewSetAssoc[stEntry](sets, ways), sets: sets}, nil
}

// Entries returns the table capacity.
func (s *ST) Entries() int { return s.arr.Sets() * s.arr.Ways() }

func (s *ST) key(pageIdx uint64) (set int, tag uint64) {
	return int(pageIdx % uint64(s.sets)), pageIdx / uint64(s.sets)
}

// Note records that pageIdx was bypassed as a singleton triggered by
// (pc, offset). The entry stays until a second access or eviction.
func (s *ST) Note(pageIdx uint64, pc memtrace.PC, offset int) {
	set, tag := s.key(pageIdx)
	if e := s.arr.Peek(set, tag); e != nil {
		e.Value = stEntry{pc: pc, offset: offset}
		return
	}
	s.arr.Insert(set, tag, stEntry{pc: pc, offset: offset})
}

// Check consults the table on a page miss. If the page was previously
// bypassed with a *different* offset, the page is no singleton: the
// entry is invalidated and the original (pc, offset) returned so the
// caller can correct the FHT (§4.4).
func (s *ST) Check(pageIdx uint64, offset int) (pc memtrace.PC, origOffset int, corrected bool) {
	set, tag := s.key(pageIdx)
	e := s.arr.Lookup(set, tag)
	if e == nil {
		return 0, 0, false
	}
	if e.Value.offset == offset {
		// Same block touched again (e.g., evicted from L2 and
		// re-fetched): still consistent with a singleton page.
		return 0, 0, false
	}
	v := e.Value
	s.arr.Invalidate(set, tag)
	return v.pc, v.offset, true
}

// lruBits returns ceil(log2(n)) for positive n (shared helper).
func lruBits(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}
