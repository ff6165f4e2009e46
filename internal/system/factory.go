package system

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"fpcache/internal/core"
	"fpcache/internal/dcache"
)

// Design kind identifiers shared by the facade, the experiment
// drivers, and the CLIs. Each canonical kind is a fixed point of the
// composable policy space (see the matrix in DESIGN.md §6); composite
// specs like "footprint+banshee" reach everything in between.
const (
	KindBaseline             = "baseline"
	KindBlock                = "block"
	KindPage                 = "page"
	KindSubblock             = "subblock"
	KindFootprint            = "footprint"
	KindFootprintNoSingleton = "footprint-nosingleton"
	KindFootprintUnion       = "footprint-union"
	KindHotPage              = "hotpage"
	KindIdeal                = "ideal"
)

// Mapping policy names (the engine's tag-placement axis).
const (
	MapPageDirect = "pagedirect"
	MapBlockRow   = "blockrow"
	MapHybrid     = "hybrid"
)

// Fill policy names (the engine's replacement/fill axis).
const (
	FillLRU     = "lru"
	FillHotGate = "hotgate"
	FillBanshee = "banshee"
)

// Partition policy names (the stacked-capacity split axis). In specs
// a partition component carries the memory share as a percentage:
// "memcache:50" dedicates half the stacked capacity to directly
// addressed memory and runs the cache engine on the rest.
const (
	PartMemCache = "memcache"
	PartMemLow   = "memlow"
)

// AllocPolicies lists the allocation-granularity policy names.
func AllocPolicies() []string {
	return []string{KindPage, KindSubblock, KindFootprint, KindFootprintNoSingleton, KindFootprintUnion}
}

// MappingPolicies lists the tag-placement policy names.
func MappingPolicies() []string {
	return []string{MapPageDirect, MapBlockRow, MapHybrid}
}

// FillPolicies lists the replacement/fill policy names.
func FillPolicies() []string {
	return []string{FillLRU, FillHotGate, FillBanshee}
}

// PartitionPolicies lists the stacked-capacity partition policy
// names (spec components take a ":<percent>" memory share).
func PartitionPolicies() []string {
	return []string{PartMemCache, PartMemLow}
}

// DesignSpec describes a cache design at a paper-scale capacity and a
// run scale.
type DesignSpec struct {
	// Kind is a canonical design kind or a composite policy spec:
	// "+"-joined component names where each component is an allocation
	// policy (page, subblock, footprint, footprint-nosingleton,
	// footprint-union), a mapping policy (pagedirect, blockrow,
	// hybrid), or a fill policy (lru, hotgate, banshee). Examples:
	// "footprint", "footprint+banshee", "page+blockrow",
	// "subblock+hybrid+hotgate".
	Kind            string
	PaperCapacityMB int
	// Scale is the capacity scale factor (1.0 = paper scale).
	Scale float64
	// Alloc/Mapping/Fill name engine policies explicitly; when set
	// they override the corresponding component parsed from Kind.
	Alloc, Mapping, Fill string
	// Partition names a stacked-capacity partition explicitly
	// ("memcache:50"); when set it overrides the component parsed
	// from Kind.
	Partition string
	// PageBytes defaults to 2KB.
	PageBytes int
	// FHTEntries defaults to 16K (Footprint designs only).
	FHTEntries int
	// Ways defaults to 16 (page-granularity designs).
	Ways int
}

func (s DesignSpec) withDefaults() DesignSpec {
	if s.Scale == 0 {
		s.Scale = 1
	}
	if s.PageBytes == 0 {
		s.PageBytes = 2048
	}
	if s.FHTEntries == 0 {
		s.FHTEntries = 16 * 1024
	}
	if s.Ways == 0 {
		s.Ways = 16
	}
	if s.PaperCapacityMB == 0 {
		s.PaperCapacityMB = 256
	}
	return s
}

// CapacityBytes returns the scaled capacity.
func (s DesignSpec) CapacityBytes() int64 {
	s = s.withDefaults()
	return int64(float64(int64(s.PaperCapacityMB)<<20) * s.Scale)
}

// composition is a resolved policy triple (plus the fixed kinds that
// do not decompose).
type composition struct {
	// fixed is non-empty for the stand-alone designs: baseline, ideal,
	// and the block-based cache, whose in-DRAM tag organization has no
	// page-granularity policy decomposition.
	fixed                string
	alloc, mapping, fill string
	// partition/memPct describe a stacked-capacity split; partition
	// is empty when the whole capacity is cache.
	partition string
	memPct    int
	// forcePageBytes overrides the spec's page size (the canonical
	// hotpage kind pins 4KB pages, §6.7).
	forcePageBytes int
	// canonical is the display name when the composition reproduces a
	// paper design; empty for hybrids.
	canonical string
}

// Name returns the design name the composition reports: the canonical
// kind for paper designs, a normalized "+"-joined spec for hybrids
// (default components omitted). The CHOP composition keeps its
// "hotpage" token in composite names because the token carries the
// 4KB page size — spelling it out as "page+hotgate" would silently
// drop the page-size pin on a name round-trip.
func (c composition) Name() string {
	if c.fixed != "" {
		return c.fixed
	}
	var parts []string
	switch {
	case c.canonical != "":
		parts = append(parts, c.canonical)
	case c.alloc == KindPage && c.fill == FillHotGate && c.forcePageBytes == 4096:
		parts = append(parts, KindHotPage)
		if c.mapping != MapPageDirect {
			parts = append(parts, c.mapping)
		}
	default:
		parts = append(parts, c.alloc)
		if c.mapping != MapPageDirect {
			parts = append(parts, c.mapping)
		}
		if c.fill != FillLRU {
			parts = append(parts, c.fill)
		}
	}
	if c.partition != "" {
		parts = append(parts, fmt.Sprintf("%s:%d", c.partition, c.memPct))
	}
	return strings.Join(parts, "+")
}

func isAlloc(name string) bool { return slices.Contains(AllocPolicies(), name) }

// parsePartition recognizes a partition spec component
// ("memcache:50", "memlow:25"). found reports whether the token names
// a partition policy at all; err is set when it does but the share is
// malformed or out of range.
func parsePartition(tok string) (name string, pct int, found bool, err error) {
	name, share, ok := strings.Cut(tok, ":")
	if !slices.Contains(PartitionPolicies(), name) {
		return "", 0, false, nil
	}
	if !ok {
		return "", 0, true, fmt.Errorf("system: partition %q needs a memory share, e.g. %q", tok, name+":50")
	}
	pct, err = strconv.Atoi(share)
	if err != nil {
		return "", 0, true, fmt.Errorf("system: bad partition share in %q: %v", tok, err)
	}
	if pct < 0 || pct >= 100 {
		return "", 0, true, fmt.Errorf("system: partition share %d%% in %q out of range [0,100)", pct, tok)
	}
	return name, pct, true, nil
}

func isMapping(name string) bool { return slices.Contains(MappingPolicies(), name) }

func isFill(name string) bool { return slices.Contains(FillPolicies(), name) }

// PartitionPercent reports the memory share (in percent) a design
// spec's partition component dedicates to directly addressed memory.
// ok is false for specs without a partition component (or specs that
// do not parse); callers seeding an adaptive controller use it to
// start the controller at the design's configured split.
func PartitionPercent(kind string) (pct int, ok bool) {
	c, err := parseKind(kind)
	if err != nil || c.partition == "" {
		return 0, false
	}
	return c.memPct, true
}

// NormalizeKind validates a design kind or composite policy spec and
// returns the name the built design would report — the canonical kind
// for paper designs, the normalized composite spec for hybrids. CLIs
// use it to validate -design values without building anything.
func NormalizeKind(kind string) (string, error) {
	c, err := resolve(DesignSpec{Kind: kind})
	if err != nil {
		return "", err
	}
	return c.Name(), nil
}

// parseKind resolves a design kind or composite policy spec into a
// composition. It is the single grammar behind BuildDesign,
// TagLatencyFor, and the CLIs' spec validation.
func parseKind(kind string) (composition, error) {
	var c composition
	set := func(field *string, v, axis string) error {
		if *field != "" && *field != v {
			return fmt.Errorf("system: spec %q names two %s policies (%s, %s)", kind, axis, *field, v)
		}
		*field = v
		return nil
	}
	parts := strings.Split(kind, "+")
	for _, raw := range parts {
		tok := strings.TrimSpace(raw)
		pname, ppct, pfound, perr := parsePartition(tok)
		switch {
		case tok == "":
			return composition{}, fmt.Errorf("system: empty component in design spec %q", kind)
		case tok == KindBaseline, tok == KindIdeal, tok == KindBlock:
			if len(parts) > 1 {
				return composition{}, fmt.Errorf("system: design %q does not compose with policies (spec %q)", tok, kind)
			}
			c.fixed = tok
		case tok == KindHotPage:
			// CHOP (§6.7): page allocation behind a hotness gate at 4KB
			// pages.
			if err := set(&c.alloc, KindPage, "allocation"); err != nil {
				return composition{}, err
			}
			if err := set(&c.fill, FillHotGate, "fill"); err != nil {
				return composition{}, err
			}
			c.forcePageBytes = 4096
		case isAlloc(tok):
			if err := set(&c.alloc, tok, "allocation"); err != nil {
				return composition{}, err
			}
		case isMapping(tok):
			if err := set(&c.mapping, tok, "mapping"); err != nil {
				return composition{}, err
			}
		case isFill(tok):
			if err := set(&c.fill, tok, "fill"); err != nil {
				return composition{}, err
			}
		case pfound:
			if perr != nil {
				return composition{}, perr
			}
			if c.partition != "" && (c.partition != pname || c.memPct != ppct) {
				return composition{}, fmt.Errorf("system: spec %q names two partitions (%s:%d, %s:%d)", kind, c.partition, c.memPct, pname, ppct)
			}
			c.partition, c.memPct = pname, ppct
		default:
			return composition{}, fmt.Errorf("system: unknown design kind or policy %q in spec %q (alloc %v, mapping %v, fill %v, partition %v with a \":<percent>\" share)",
				tok, kind, AllocPolicies(), MappingPolicies(), FillPolicies(), PartitionPolicies())
		}
	}
	return c, nil
}

// resolve parses the spec's Kind, applies explicit policy fields, and
// fills defaults.
func resolve(spec DesignSpec) (composition, error) {
	var c composition
	if spec.Kind != "" {
		var err error
		if c, err = parseKind(spec.Kind); err != nil {
			return composition{}, err
		}
	}
	if spec.Alloc != "" {
		if !isAlloc(spec.Alloc) {
			return composition{}, fmt.Errorf("system: unknown allocation policy %q (have %v)", spec.Alloc, AllocPolicies())
		}
		c.alloc = spec.Alloc
	}
	if spec.Mapping != "" {
		if !isMapping(spec.Mapping) {
			return composition{}, fmt.Errorf("system: unknown mapping policy %q (have %v)", spec.Mapping, MappingPolicies())
		}
		c.mapping = spec.Mapping
	}
	if spec.Fill != "" {
		if !isFill(spec.Fill) {
			return composition{}, fmt.Errorf("system: unknown fill policy %q (have %v)", spec.Fill, FillPolicies())
		}
		c.fill = spec.Fill
	}
	if spec.Partition != "" {
		name, pct, found, err := parsePartition(spec.Partition)
		if err != nil {
			return composition{}, err
		}
		if !found {
			return composition{}, fmt.Errorf("system: unknown partition policy %q (have %v with a \":<percent>\" share)", spec.Partition, PartitionPolicies())
		}
		c.partition, c.memPct = name, pct
	}
	if c.fixed != "" {
		if c.alloc != "" || c.mapping != "" || c.fill != "" || c.partition != "" {
			return composition{}, fmt.Errorf("system: design %q does not compose with policies", c.fixed)
		}
		return c, nil
	}
	if c.alloc == "" {
		return composition{}, fmt.Errorf("system: spec %q names no allocation policy (have %v)", spec.Kind, AllocPolicies())
	}
	if c.mapping == "" {
		c.mapping = MapPageDirect
	}
	if c.fill == "" {
		c.fill = FillLRU
	}
	// Canonical paper designs keep their paper names.
	if c.mapping == MapPageDirect {
		switch {
		case c.fill == FillLRU:
			c.canonical = c.alloc
		case c.fill == FillHotGate && c.alloc == KindPage && c.forcePageBytes == 4096:
			c.canonical = KindHotPage
		}
	}
	return c, nil
}

// TagLatencyFor returns the paper's Table 4 SRAM lookup latency in CPU
// cycles for a design kind (canonical or composite) at a paper-scale
// capacity. Scaled runs stand in for paper-sized caches, so they pay
// paper-sized latencies. The latency follows the allocation policy's
// tag-array width: block-vector tags (subblock, footprint) are wider
// and slower than page tags.
func TagLatencyFor(kind string, paperMB int) int {
	pick := func(l64, l128, l256, l512 int) int {
		switch {
		case paperMB <= 64:
			return l64
		case paperMB <= 128:
			return l128
		case paperMB <= 256:
			return l256
		default:
			return l512
		}
	}
	c, err := parseKind(kind)
	if err != nil {
		return 0
	}
	if c.fixed == KindBlock {
		return pick(9, 9, 9, 11)
	}
	switch c.alloc {
	case KindFootprint, KindFootprintNoSingleton, KindFootprintUnion, KindSubblock:
		return pick(4, 6, 9, 11)
	case KindPage:
		return pick(4, 5, 6, 9)
	default:
		return 0
	}
}

// buildAlloc constructs the allocation policy.
func buildAlloc(name string, spec DesignSpec, capBytes int64) (dcache.AllocPolicy, error) {
	switch name {
	case KindPage:
		return dcache.PageAlloc{}, nil
	case KindSubblock:
		return dcache.DemandAlloc{}, nil
	case KindFootprint, KindFootprintNoSingleton, KindFootprintUnion:
		fc := core.Default(capBytes)
		fc.FHTEntries = spec.FHTEntries
		fc.SingletonOpt = name != KindFootprintNoSingleton
		if name == KindFootprintUnion {
			fc.Feedback = core.FeedbackUnion
		}
		return core.NewFootprintPolicy(fc)
	default:
		return nil, fmt.Errorf("system: unknown allocation policy %q", name)
	}
}

// buildMapping constructs the mapping policy for a geometry.
func buildMapping(name string, geom dcache.PageGeometry) (dcache.MappingPolicy, error) {
	frames := geom.CapacityBytes / int64(geom.PageBytes)
	switch name {
	case MapPageDirect:
		return dcache.PageDirectMapping{PageBytes: geom.PageBytes}, nil
	case MapBlockRow:
		return dcache.BlockRowMapping{Frames: frames}, nil
	case MapHybrid:
		return dcache.HybridMapping{PageBytes: geom.PageBytes, Frames: frames}, nil
	default:
		return nil, fmt.Errorf("system: unknown mapping policy %q", name)
	}
}

// BuildDesign constructs the specified cache design. Page-granularity
// kinds are built as policy compositions on the generic engine
// (dcache.Engine); the golden parity test pins every kind to the rows
// recorded in testdata/parity.
func BuildDesign(spec DesignSpec) (dcache.Design, error) {
	spec = spec.withDefaults()
	comp, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	capBytes := spec.CapacityBytes()

	switch comp.fixed {
	case KindBaseline:
		return dcache.NewBaseline(), nil
	case KindIdeal:
		return dcache.NewIdeal(), nil
	case KindBlock:
		entries, ways, mmLat := dcache.MissMapParams(spec.PaperCapacityMB)
		entries = int(float64(entries) * spec.Scale)
		entries -= entries % ways
		if entries < ways {
			entries = ways
		}
		return dcache.NewBlockCache(dcache.BlockCacheConfig{
			CapacityBytes:  capBytes,
			MissMapEntries: entries,
			MissMapWays:    ways,
			TagCycles:      mmLat,
		})
	}

	pageBytes := spec.PageBytes
	if comp.forcePageBytes != 0 {
		pageBytes = comp.forcePageBytes
	}
	geom := dcache.PageGeometry{CapacityBytes: capBytes, PageBytes: pageBytes, Ways: spec.Ways}
	alloc, err := buildAlloc(comp.alloc, spec, capBytes)
	if err != nil {
		return nil, err
	}
	mapping, err := buildMapping(comp.mapping, geom)
	if err != nil {
		return nil, err
	}
	name := comp.Name()
	engine, err := dcache.NewEngine(dcache.EngineConfig{
		Name:      name,
		Geometry:  geom,
		TagCycles: TagLatencyFor(name, spec.PaperCapacityMB),
		Alloc:     alloc,
		Mapping:   mapping,
		// Partitioned designs need the resizable consistent-hash set
		// mapping; the geometry spans the full stacked capacity and
		// the partition decides how much of it the tags govern.
		Consistent: comp.partition != "",
	})
	if err != nil {
		return nil, err
	}
	var design dcache.Design
	switch comp.fill {
	case FillLRU:
		design = engine
	case FillHotGate:
		design, err = dcache.NewGate(dcache.GateConfig{Name: name, Engine: engine, Policy: dcache.HotGatePolicy{Threshold: 8}})
	case FillBanshee:
		design, err = dcache.NewGate(dcache.GateConfig{Name: name, Engine: engine, Policy: dcache.BansheeGatePolicy{}})
	default:
		return nil, fmt.Errorf("system: unknown fill policy %q", comp.fill)
	}
	if err != nil {
		return nil, err
	}
	if comp.partition == "" {
		return design, nil
	}
	return dcache.NewPartitioned(dcache.PartitionConfig{
		Name:       name,
		Inner:      design,
		Policy:     buildPartition(comp.partition),
		MemPercent: comp.memPct,
	})
}

// buildPartition constructs the partition policy. parseKind already
// validated the name.
func buildPartition(name string) dcache.PartitionPolicy {
	if name == PartMemLow {
		return dcache.LowAddrPartition{}
	}
	return dcache.HashBandPartition{}
}
