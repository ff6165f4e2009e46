package dcache

import (
	"fmt"

	"fpcache/internal/memtrace"
	"fpcache/internal/sram"
)

// BlockCache reimplements the paper's state-of-the-art block-based
// comparator (§5.2, after Loh & Hill): 64B blocks whose tags are
// co-located with data in the stacked DRAM — each 2KB row holds one
// 30-way cache set (30 data blocks plus 2 tag blocks, §5.2's
// optimized layout) — fronted by an SRAM MissMap that tracks block
// presence at 4KB-region granularity so misses skip the in-DRAM tag
// probe entirely.
//
// The design's characteristic costs all emerge from this structure:
//   - hits pay a compound row access (tag CAS + data CAS + tag-update
//     CAS on one activation, with close-page policy between requests);
//   - spatially consecutive blocks live in different rows, so MissMap
//     evictions force scattered writebacks with excessive activations;
//   - capacity is managed per block, so the hit *ratio* is limited by
//     temporal reuse, which server workloads lack (§2.2).
type BlockCache struct {
	rows      int // one cache set per DRAM row
	tagCycles int

	blocks  *sram.SetAssoc[blockMeta] // models the in-DRAM tags
	missMap *sram.SetAssoc[uint64]    // presence vector per 4KB region
	mmSets  int

	ctr Counters
	// ForcedEvicts counts blocks evicted because their MissMap region
	// entry was replaced (§5.2 reports these interfere with demand
	// traffic).
	ForcedEvicts uint64
}

type blockMeta struct {
	dirty bool
}

const (
	// DataBlocksPerRow and tag layout follow §5.2's optimized packing
	// (30 data + 2 tag blocks per 2KB row, 30-way associativity).
	DataBlocksPerRow = 30
	rowBytes         = 2048
	regionBytes      = 4096 // MissMap tracking granularity
	blocksPerRegion  = regionBytes / 64
)

// BlockCacheConfig configures the design.
type BlockCacheConfig struct {
	CapacityBytes  int64
	MissMapEntries int
	MissMapWays    int
	// TagCycles is the MissMap lookup latency (the SRAM structure on
	// the critical path; in-DRAM tag latency is paid in DRAM ops).
	TagCycles int
}

// NewBlockCache builds the design.
func NewBlockCache(cfg BlockCacheConfig) (*BlockCache, error) {
	rows := cfg.CapacityBytes / rowBytes
	if rows < 1 {
		return nil, fmt.Errorf("dcache: capacity %d below one row", cfg.CapacityBytes)
	}
	if cfg.MissMapEntries <= 0 || cfg.MissMapWays <= 0 || cfg.MissMapEntries%cfg.MissMapWays != 0 {
		return nil, fmt.Errorf("dcache: missmap %d entries / %d ways invalid", cfg.MissMapEntries, cfg.MissMapWays)
	}
	mmSets := cfg.MissMapEntries / cfg.MissMapWays
	return &BlockCache{
		rows:      int(rows),
		tagCycles: cfg.TagCycles,
		blocks:    sram.NewSetAssoc[blockMeta](int(rows), DataBlocksPerRow),
		missMap:   sram.NewSetAssoc[uint64](mmSets, cfg.MissMapWays),
		mmSets:    mmSets,
	}, nil
}

// Name implements Design.
func (b *BlockCache) Name() string { return "block" }

// Counters implements Design.
func (b *BlockCache) Counters() Counters { return b.ctr }

// BlockMetadataBits computes the block-based design's SRAM budget: the
// MissMap is the design's only SRAM structure (tags live in DRAM);
// each entry holds a region tag, a 64-bit presence vector, a valid
// bit, and LRU state (Table 4).
func BlockMetadataBits(mmEntries, mmWays int) int64 {
	mmSets := mmEntries / mmWays
	tagBits := 40 - 12 - lruBits(mmSets) // 4KB region tracking
	return int64(mmEntries) * int64(tagBits+blocksPerRegion+1+lruBits(mmWays))
}

// MetadataBits implements Design.
func (b *BlockCache) MetadataBits() int64 {
	return BlockMetadataBits(b.missMap.Sets()*b.missMap.Ways(), b.missMap.Ways())
}

// rowBase returns the stacked-DRAM address of a cache set's row.
func (b *BlockCache) rowBase(set int) memtrace.Addr {
	return memtrace.Addr(int64(set) * rowBytes)
}

func (b *BlockCache) blockIndex(addr memtrace.Addr) (set int, tag uint64, blockNum uint64) {
	blockNum = uint64(addr) / 64
	return int(blockNum % uint64(b.rows)), blockNum / uint64(b.rows), blockNum
}

func (b *BlockCache) regionIndex(addr memtrace.Addr) (set int, tag uint64, bit uint64) {
	region := uint64(addr) / regionBytes
	blk := uint64(addr) % regionBytes / 64
	return int(region % uint64(b.mmSets)), region / uint64(b.mmSets), uint64(1) << blk
}

// Access implements Design.
func (b *BlockCache) Access(rec memtrace.Record, ops []Op) Outcome {
	b.ctr.record(rec)
	mmSet, mmTag, mmBit := b.regionIndex(rec.Addr)
	mm := b.missMap.Lookup(mmSet, mmTag)

	if mm != nil && mm.Value&mmBit != 0 {
		// Present: compound in-DRAM access — one activation serving
		// tag CAS + data CAS + tag-update CAS in the set's row.
		b.ctr.Hits++
		set, tag, _ := b.blockIndex(rec.Addr)
		e := b.blocks.Lookup(set, tag)
		if e == nil {
			panic("dcache: blockcache missmap/tag divergence (present bit without block)")
		}
		if rec.Write {
			e.Value.dirty = true
		}
		ops = append(ops[:0], Op{
			Level: Stacked, Addr: b.rowBase(set), Bytes: 3 * 64,
			Write: rec.Write, Critical: criticality(rec.Write), DependsOn: NoDep,
		})
		return Outcome{Hit: true, TagCycles: b.tagCycles, Ops: ops}
	}

	// Miss: serve reads from memory; an L2 writeback carries the full
	// 64B block, so a write miss installs without an off-chip read.
	b.ctr.Misses++
	ops = ops[:0]
	crit := int32(NoDep)
	if !rec.Write {
		crit = int32(len(ops))
		ops = append(ops, Op{Level: OffChip, Addr: rec.Addr, Bytes: 64, Critical: true, DependsOn: NoDep})
	}

	// Fill into the set's row: possible victim writeback first.
	set, tag, _ := b.blockIndex(rec.Addr)
	victim := b.blocks.Victim(set)
	if victim.Valid() {
		victimBlockNum := victim.Tag*uint64(b.rows) + uint64(set)
		victimAddr := memtrace.Addr(victimBlockNum * 64)
		if victim.Value.dirty {
			b.ctr.DirtyEvicts++
			// Data travels with the fill's row activation; the
			// off-chip writeback is posted.
			rd := int32(len(ops))
			ops = append(ops, Op{Level: Stacked, Addr: b.rowBase(set), Bytes: 2 * 64, DependsOn: NoDep})
			ops = append(ops, Op{Level: OffChip, Addr: victimAddr, Bytes: 64, Write: true, DependsOn: rd})
		}
		b.clearPresence(victimAddr)
	}
	b.blocks.Replace(victim, tag, blockMeta{dirty: rec.Write})
	b.ctr.PageAllocs++ // block allocations; name kept for uniform reporting
	// Data + tag-update CAS under one activation.
	ops = append(ops, Op{Level: Stacked, Addr: b.rowBase(set), Bytes: 2 * 64, Write: true, DependsOn: crit})

	// MissMap update.
	if mm != nil {
		mm.Value |= mmBit
	} else {
		ops = b.insertRegion(mmSet, mmTag, mmBit, ops)
	}
	return Outcome{TagCycles: b.tagCycles, Ops: ops}
}

// insertRegion allocates a MissMap entry, force-evicting every cached
// block of the displaced region (§5.2): each present block's row must
// be activated to read its tag (and data, if dirty) — spatially
// consecutive blocks sit in different rows, which is exactly why these
// evictions are expensive.
func (b *BlockCache) insertRegion(mmSet int, mmTag, mmBit uint64, ops []Op) []Op {
	old, evicted := b.missMap.Insert(mmSet, mmTag, mmBit)
	if !evicted || old.Value == 0 {
		return ops
	}
	oldRegion := old.Tag*uint64(b.mmSets) + uint64(mmSet)
	base := memtrace.Addr(oldRegion * regionBytes)
	for i := 0; i < blocksPerRegion; i++ {
		if old.Value&(1<<i) == 0 {
			continue
		}
		addr := base + memtrace.Addr(i*64)
		set, tag, _ := b.blockIndex(addr)
		e, ok := b.blocks.Invalidate(set, tag)
		if !ok {
			panic("dcache: blockcache missmap/tag divergence (region bit without block)")
		}
		b.ForcedEvicts++
		b.ctr.PageEvicts++
		if e.Value.dirty {
			b.ctr.DirtyEvicts++
			rd := int32(len(ops))
			ops = append(ops, Op{Level: Stacked, Addr: b.rowBase(set), Bytes: 2 * 64, DependsOn: NoDep})
			ops = append(ops, Op{Level: OffChip, Addr: addr, Bytes: 64, Write: true, DependsOn: rd})
		} else {
			// Tag probe only.
			ops = append(ops, Op{Level: Stacked, Addr: b.rowBase(set), Bytes: 64, DependsOn: NoDep})
		}
	}
	return ops
}

// clearPresence clears the MissMap bit of an evicted block.
func (b *BlockCache) clearPresence(addr memtrace.Addr) {
	mmSet, mmTag, mmBit := b.regionIndex(addr)
	if e := b.missMap.Peek(mmSet, mmTag); e != nil {
		e.Value &^= mmBit
		if e.Value == 0 {
			b.missMap.Invalidate(mmSet, mmTag)
		}
	}
}

// MissMapParams returns the paper's Table 4 MissMap provisioning for a
// paper-scale capacity in MB: 192K entries at 24-way for caches up to
// 256MB, grown by 50% (288K at 36-way) at 512MB to curb forced
// evictions.
func MissMapParams(paperMB int) (entries, ways, latency int) {
	if paperMB >= 512 {
		return 288 * 1024, 36, 11
	}
	return 192 * 1024, 24, 9
}
