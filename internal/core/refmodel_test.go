package core

import (
	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
)

// This file is a counter-level reference model of the paper's
// page-granularity designs, written from the paper rather than from
// the engine: map-based LRU sets with modulo indexing, the §4.2-4.4
// Footprint flow with an unbounded FHT keyed by (PC, offset) and an
// unbounded Singleton Table, and block state held in Table 2's two
// vectors. TestReferenceModelMatchesEngine (refparity_test.go) runs it
// beside the composed engine; table2_test.go checks the encoding.

// blockState is one block's state in the paper's two-bit encoding
// (Table 2). A block cannot be dirty without having been demanded
// (§4.3), so the high bit doubles as the "demanded" flag and the
// page's footprint is read out of the dirty vector.
type blockState uint8

const (
	notPresent      blockState = 0b00
	cleanPrefetched blockState = 0b01
	cleanDemanded   blockState = 0b10
	dirtyDemanded   blockState = 0b11
)

func (s blockState) String() string {
	return [...]string{"not-present", "clean-prefetched", "clean-demanded", "dirty-demanded"}[s&0b11]
}

func (s blockState) present() bool  { return s != notPresent }
func (s blockState) demanded() bool { return s&0b10 != 0 }
func (s blockState) dirty() bool    { return s == dirtyDemanded }

// pageVectors is a page's block state as Table 2's two vectors: bit i
// of d is block i's high state bit, bit i of v its low bit.
type pageVectors struct{ d, v uint64 }

func (p pageVectors) state(i int) blockState {
	return blockState((p.d>>i&1)<<1 | (p.v >> i & 1))
}

func (p *pageVectors) setState(i int, s blockState) {
	mask := uint64(1) << i
	p.d, p.v = p.d&^mask, p.v&^mask
	if s&0b10 != 0 {
		p.d |= mask
	}
	if s&0b01 != 0 {
		p.v |= mask
	}
}

// fill marks fetched blocks clean-prefetched; blocks already present
// keep their state.
func (p *pageVectors) fill(bits uint64) { p.v |= bits &^ p.presentMask() }

// demand applies a core's access to a present block: a write makes it
// dirty-demanded, a read promotes clean-prefetched to clean-demanded.
func (p *pageVectors) demand(i int, write bool) {
	switch s := p.state(i); {
	case !s.present():
		panic("refmodel: demand on a block that is not present")
	case write:
		p.setState(i, dirtyDemanded)
	case s == cleanPrefetched:
		p.setState(i, cleanDemanded)
	}
}

func (p pageVectors) presentMask() uint64  { return p.d | p.v }
func (p pageVectors) demandedMask() uint64 { return p.d }
func (p pageVectors) dirtyMask() uint64    { return p.d & p.v }

// fhtKey is the predictor index of §4.2: the triggering instruction
// and the offset of the block it missed on.
type fhtKey struct {
	pc     memtrace.PC
	offset int
}

type refPage struct {
	vec       pageVectors
	predicted uint64 // footprint fetched at allocation (Fig. 8)
	key       fhtKey // FHT entry that receives eviction feedback
	used      uint64 // LRU stamp
}

// refModel is one design: alloc is "page" (§2.3), "subblock" (§3.1)
// or "footprint" (§4); singleton and union select the §6.5 ablations.
type refModel struct {
	alloc            string
	singleton, union bool
	pageBytes, ways  int
	full             uint64
	sets             []map[uint64]*refPage
	clock            uint64
	fht              map[fhtKey]uint64
	st               map[uint64]fhtKey // bypassed page -> its trigger

	ctr                    dcache.Counters
	extra                  Stats
	queries, cold, updates uint64
	densities              []int
}

func newRefModel(alloc string, singleton, union bool, capBytes int64, pageBytes, ways int) *refModel {
	m := &refModel{
		alloc: alloc, singleton: singleton, union: union,
		pageBytes: pageBytes, ways: ways,
		full: uint64(1)<<(pageBytes/64) - 1,
		sets: make([]map[uint64]*refPage, capBytes/int64(pageBytes)/int64(ways)),
		fht:  map[fhtKey]uint64{},
		st:   map[uint64]fhtKey{},
	}
	for i := range m.sets {
		m.sets[i] = map[uint64]*refPage{}
	}
	return m
}

func (m *refModel) access(rec memtrace.Record) {
	if rec.Write {
		m.ctr.Writes++
	} else {
		m.ctr.Reads++
	}
	m.clock++
	pageIdx := uint64(rec.Addr) / uint64(m.pageBytes)
	block := int(uint64(rec.Addr) % uint64(m.pageBytes) / 64)
	set := m.sets[pageIdx%uint64(len(m.sets))]
	tag := pageIdx / uint64(len(m.sets))

	if p := set[tag]; p != nil {
		p.used = m.clock
		if p.vec.state(block).present() {
			m.ctr.Hits++
		} else {
			// Block miss on a resident page: fetch the block alone.
			m.ctr.Misses++
			if m.alloc == "footprint" {
				m.extra.UnderpredMisses++
			}
			p.vec.fill(1 << block)
		}
		p.vec.demand(block, rec.Write)
		return
	}

	m.ctr.Misses++
	fetch, key, bypass := m.predict(rec, pageIdx, block)
	if bypass {
		m.ctr.Bypasses++
		return
	}
	if len(set) == m.ways {
		m.evict(set)
	}
	p := &refPage{predicted: fetch, key: key, used: m.clock}
	p.vec.fill(fetch)
	p.vec.demand(block, rec.Write)
	set[tag] = p
	m.ctr.PageAllocs++
}

// predict decides a triggering miss's fetch. For Footprint it is the
// §4.2 lookup plus the §4.4 singleton bypass and correction.
func (m *refModel) predict(rec memtrace.Record, pageIdx uint64, block int) (fetch uint64, key fhtKey, bypass bool) {
	bit := uint64(1) << block
	switch m.alloc {
	case "page":
		return m.full, key, false
	case "subblock":
		return bit, key, false
	}
	key = fhtKey{rec.PC, block}
	first, corrected := m.st[pageIdx]
	corrected = corrected && m.singleton && first.offset != block
	if corrected {
		// A second block of a bypassed page: it was no singleton.
		delete(m.st, pageIdx)
		m.extra.STCorrections++
	}
	m.queries++
	footprint, known := m.fht[key]
	if !known {
		m.cold++
		m.extra.FHTCold++
		m.fht[key] = bit
	}
	footprint |= bit
	if corrected {
		// Fetch the first block too and send feedback to the key
		// that misclassified the page.
		footprint |= 1 << first.offset
		m.fht[first] = footprint
		return footprint, first, false
	}
	if m.singleton && known && footprint == bit {
		m.extra.SingletonBypasses++
		m.st[pageIdx] = key
		return 0, key, true
	}
	return footprint, key, false
}

// evict retires the set's least recently used page, feeding its
// demanded vector back to the FHT (§4.3).
func (m *refModel) evict(set map[uint64]*refPage) {
	var vtag uint64
	var v *refPage
	for tag, p := range set {
		if v == nil || p.used < v.used {
			vtag, v = tag, p
		}
	}
	delete(set, vtag)
	m.ctr.PageEvicts++
	demanded := v.vec.demandedMask()
	m.densities = append(m.densities, popcount(demanded))
	if v.vec.dirtyMask() != 0 {
		m.ctr.DirtyEvicts++
	}
	if m.alloc != "footprint" {
		return
	}
	m.extra.CoveredBlocks += uint64(popcount(demanded & v.predicted))
	m.extra.UnderBlocks += uint64(popcount(demanded &^ v.predicted))
	m.extra.OverBlocks += uint64(popcount(v.predicted &^ demanded))
	m.updates++
	if m.union {
		m.fht[v.key] |= demanded
	} else {
		m.fht[v.key] = demanded
	}
}
