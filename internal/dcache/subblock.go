package dcache

import (
	"fpcache/internal/memtrace"
	"fpcache/internal/sram"
)

// SubblockCache is the classical sub-blocked (sectored) organization
// the paper uses as the zero-overprediction bound (§3.1): it allocates
// page-granularity tags but fetches every 64B block on demand. It
// therefore never wastes off-chip bandwidth — and pays a miss for
// every first touch of every block (maximal underprediction).
type SubblockCache struct {
	geom      PageGeometry
	sets      int
	bpp       int
	tagCycles int
	tags      *sram.SetAssoc[PageMeta]
	ctr       Counters
	// OnEvict, if set, observes eviction densities.
	OnEvict DensityObserver
}

// SubblockConfig configures a sub-blocked cache.
type SubblockConfig struct {
	Geometry  PageGeometry
	TagCycles int
}

// NewSubblockCache builds the design.
func NewSubblockCache(cfg SubblockConfig) (*SubblockCache, error) {
	sets, bpp, err := cfg.Geometry.Validate()
	if err != nil {
		return nil, err
	}
	return &SubblockCache{
		geom:      cfg.Geometry,
		sets:      sets,
		bpp:       bpp,
		tagCycles: cfg.TagCycles,
		tags:      sram.NewSetAssoc[PageMeta](sets, cfg.Geometry.Ways),
	}, nil
}

// Name implements Design.
func (s *SubblockCache) Name() string { return "subblock" }

// Counters implements Design.
func (s *SubblockCache) Counters() Counters { return s.ctr }

// SubblockMetadataBits computes the sub-blocked design's SRAM budget:
// page tags plus valid and dirty vectors.
func SubblockMetadataBits(geom PageGeometry) int64 {
	sets, bpp, err := geom.Validate()
	if err != nil {
		panic(err)
	}
	pages := geom.CapacityBytes / int64(geom.PageBytes)
	per := int64(addressTagBits(geom.PageBytes, sets) + 1 + lruBits(geom.Ways) + 2*bpp)
	return pages * per
}

// MetadataBits implements Design.
func (s *SubblockCache) MetadataBits() int64 { return SubblockMetadataBits(s.geom) }

func (s *SubblockCache) frameAddr(set, way int) memtrace.Addr {
	return memtrace.Addr((int64(set)*int64(s.geom.Ways) + int64(way)) * int64(s.geom.PageBytes))
}

// Access implements Design.
func (s *SubblockCache) Access(rec memtrace.Record, ops []Op) Outcome {
	s.ctr.record(rec)
	pageIdx, block := pageAddrOf(rec.Addr, s.geom.PageBytes)
	set := int(pageIdx % uint64(s.sets))
	tag := pageIdx / uint64(s.sets)
	bit := uint64(1) << block

	if e := s.tags.Lookup(set, tag); e != nil {
		frame := s.frameAddr(set, e.Way()) + memtrace.Addr(block*64)
		if e.Value.Valid&bit != 0 {
			// Block present.
			s.ctr.Hits++
			e.Value.Demanded |= bit
			if rec.Write {
				e.Value.Dirty |= bit
			}
			ops = append(ops[:0], Op{
				Level: Stacked, Addr: frame, Bytes: 64,
				Write: rec.Write, Critical: criticality(rec.Write), DependsOn: NoDep,
			})
			return Outcome{Hit: true, TagCycles: s.tagCycles, Ops: ops}
		}
		// Page present, block absent: demand-fetch just this block
		// (writes carry the whole block, so they skip the fetch).
		s.ctr.Misses++
		e.Value.Valid |= bit
		e.Value.Demanded |= bit
		if rec.Write {
			e.Value.Dirty |= bit
			ops = append(ops[:0], Op{Level: Stacked, Addr: frame, Bytes: 64, Write: true, DependsOn: NoDep})
			return Outcome{TagCycles: s.tagCycles, Ops: ops}
		}
		ops = append(ops[:0],
			Op{Level: OffChip, Addr: rec.Addr, Bytes: 64, Critical: true, DependsOn: NoDep},
			Op{Level: Stacked, Addr: frame, Bytes: 64, Write: true, DependsOn: 0},
		)
		return Outcome{TagCycles: s.tagCycles, Ops: ops}
	}

	// Page miss: allocate the tag, fetch only the demanded block.
	s.ctr.Misses++
	ops = ops[:0]
	victim := s.tags.Victim(set)
	frame := s.frameAddr(set, victim.Way())
	if victim.Valid() {
		s.ctr.PageEvicts++
		if s.OnEvict != nil {
			s.OnEvict(popcount(victim.Value.Demanded), s.bpp)
		}
		if victim.Value.Dirty != 0 {
			s.ctr.DirtyEvicts++
			n := popcount(victim.Value.Dirty)
			victimBase := memtrace.Addr(victim.Tag*uint64(s.sets)+uint64(set)) * memtrace.Addr(s.geom.PageBytes)
			ops = append(ops,
				Op{Level: Stacked, Addr: frame, Bytes: n * 64, Write: false, DependsOn: NoDep},
				Op{Level: OffChip, Addr: victimBase, Bytes: n * 64, Write: true, DependsOn: 0},
			)
		}
	}
	crit := int32(NoDep)
	if !rec.Write {
		crit = int32(len(ops))
		ops = append(ops, Op{Level: OffChip, Addr: rec.Addr, Bytes: 64, Critical: true, DependsOn: NoDep})
	}
	ops = append(ops, Op{Level: Stacked, Addr: frame + memtrace.Addr(block*64), Bytes: 64, Write: true, DependsOn: crit})

	meta := PageMeta{Valid: bit, Demanded: bit}
	if rec.Write {
		meta.Dirty = bit
	}
	s.tags.Replace(victim, tag, meta)
	s.ctr.PageAllocs++
	return Outcome{TagCycles: s.tagCycles, Ops: ops}
}
