// Package synth generates synthetic memory-reference traces that stand
// in for the paper's CloudSuite 1.0 and SPEC INT2006 workloads.
//
// The substitution is documented in DESIGN.md §2. Its core is the
// pattern-pool model: server software accesses structured data through
// a small set of code paths (get/set methods, iterators), so the
// (PC, offset) of the access that first touches a page strongly
// predicts which other blocks of that page will be touched — the
// property Footprint Cache exploits (§3.1 of the paper). The generator
// makes that property explicit:
//
//   - A *pattern* models one code site: a PC, a footprint template (a
//     set of 64B blocks within a 4KB region), and an emission order.
//   - A *visit* is one activation of a pattern against a region of the
//     dataset: it emits the template's blocks over time, interleaved
//     with hundreds of other concurrent visits (so a page's footprint
//     accumulates during a finite residency window, which is what
//     makes measured page density grow with cache capacity, Fig. 4).
//   - Per-workload profiles control the pattern mix (singleton-heavy
//     MapReduce vs dense Web Search), dataset size, popularity skew,
//     write fraction, and — for SAT Solver — template drift over time,
//     which models its on-the-fly dataset construction that the paper
//     reports interferes with prediction (§6.2).
//
// Addresses are emitted over 4KB regions; the *cache* decides the page
// size, so one trace serves 1KB/2KB/4KB page studies (Fig. 8).
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"fpcache/internal/memtrace"
)

// RegionBytes is the natural data-structure placement unit the
// generator emits over; caches chop it into pages.
const RegionBytes = 4096

// BlocksPerRegion is the number of 64B blocks per region.
const BlocksPerRegion = RegionBytes / 64

// Class describes one family of access patterns.
type Class struct {
	// Weight is the relative frequency of visits drawn from this
	// class.
	Weight float64
	// MinBlocks/MaxBlocks bound the template size in blocks.
	MinBlocks, MaxBlocks int
	// Sequential templates are contiguous runs accessed in ascending
	// order; non-sequential templates scatter blocks within a
	// half-region window and access them in a fixed shuffled order.
	Sequential bool
	// FullRegion templates cover all 64 blocks of the region
	// (streaming patterns); MinBlocks/MaxBlocks are ignored.
	FullRegion bool
}

// Profile is a workload description. All capacities are paper-scale;
// the generator scales them by the harness scale factor.
type Profile struct {
	Name string
	// Classes is the pattern mix.
	Classes []Class
	// PatternsPerClass is the number of distinct code sites per class.
	PatternsPerClass int
	// DatasetBytes is the paper-scale dataset size.
	DatasetBytes int64
	// Concurrency is the number of in-flight visits (drives page
	// residency pressure), at paper scale.
	Concurrency int
	// RevisitFrac is the probability a new visit targets a recently
	// touched region instead of a fresh draw from the dataset.
	RevisitFrac float64
	// RecencyWindow is the size of the recently-touched region pool.
	RecencyWindow int
	// ZipfTheta is the popularity skew over the dataset (0 = uniform;
	// scale-out datasets are weakly skewed, §6.7).
	ZipfTheta float64
	// WriteFrac is the fraction of references that are writes
	// (L2 dirty writebacks reaching the DRAM cache).
	WriteFrac float64
	// RepeatFrac is the probability of re-emitting an already-visited
	// block (intra-page temporal reuse; low for DRAM caches, §2).
	RepeatFrac float64
	// BurstLen is the mean number of accesses a visit issues each
	// time it holds the core's focus. Data-structure traversals touch
	// a page in tight bursts; burst length controls how page
	// residency compares to visit duration (and with it how much
	// footprint truncation small caches suffer, Fig. 4). Defaults
	// to 8.
	BurstLen int
	// GapMean is the mean number of non-memory instructions between
	// references per core.
	GapMean int
	// MLP is the per-core memory-level parallelism the timing model
	// should allow for this workload.
	MLP int
	// DriftEvery mutates a third of the pattern templates every N
	// visits (0 disables); models SAT Solver's evolving dataset.
	DriftEvery int64
	// PhaseEvery alternates the fresh-visit target distribution every N
	// visits (0 disables): phases 0, 2, 4, ... confine draws to a small
	// resident working set, phases 1, 3, 5, ... span the whole dataset.
	// Models phase-shifting behavior (batch jobs alternating scan and
	// aggregation passes) whose best stacked-capacity split moves at
	// run time — the regime the adaptive partition controller targets.
	PhaseEvery int64
	// PhaseFrac is the small phase's working-set size as a fraction of
	// the dataset. The slice sits at the middle of the address space,
	// deliberately outside the low-address region a "memlow" partition
	// pins, so the two phases genuinely disagree about the best split.
	PhaseFrac float64
	// PhasePinFrac applies during the whole-dataset phases: the
	// probability a fresh draw targets a hot set occupying the lowest
	// PhaseFrac of the dataset instead of a uniform scan draw. The scan
	// traffic continuously pollutes an LRU cache out of the hot set,
	// while a low-address memory partition pins it untouched — the
	// mechanism that makes a large memory split win the scan phases.
	PhasePinFrac float64
	// Cores is the number of cores emitting the trace.
	Cores int
}

// Validate checks profile sanity.
func (p Profile) Validate() error {
	if len(p.Classes) == 0 {
		return fmt.Errorf("synth %s: no classes", p.Name)
	}
	total := 0.0
	for _, c := range p.Classes {
		if c.Weight < 0 {
			return fmt.Errorf("synth %s: negative class weight", p.Name)
		}
		total += c.Weight
		if !c.FullRegion && (c.MinBlocks < 1 || c.MaxBlocks > BlocksPerRegion || c.MinBlocks > c.MaxBlocks) {
			return fmt.Errorf("synth %s: class block range [%d,%d] invalid", p.Name, c.MinBlocks, c.MaxBlocks)
		}
	}
	if total <= 0 {
		return fmt.Errorf("synth %s: zero total class weight", p.Name)
	}
	if p.DatasetBytes < RegionBytes {
		return fmt.Errorf("synth %s: dataset smaller than one region", p.Name)
	}
	if p.Concurrency < 1 || p.PatternsPerClass < 1 || p.Cores < 1 || p.GapMean < 1 {
		return fmt.Errorf("synth %s: concurrency/patterns/cores/gap mean must be positive", p.Name)
	}
	if p.Cores > math.MaxUint8 {
		return fmt.Errorf("synth %s: %d cores do not fit the 8-bit core field", p.Name, p.Cores)
	}
	if p.PhaseEvery < 0 {
		return fmt.Errorf("synth %s: negative PhaseEvery", p.Name)
	}
	if p.PhaseEvery > 0 && (p.PhaseFrac <= 0 || p.PhaseFrac >= 1) {
		return fmt.Errorf("synth %s: PhaseFrac %g out of (0,1)", p.Name, p.PhaseFrac)
	}
	if p.PhasePinFrac < 0 || p.PhasePinFrac >= 1 {
		return fmt.Errorf("synth %s: PhasePinFrac %g out of [0,1)", p.Name, p.PhasePinFrac)
	}
	if _, n := packingFor(p); n > 64 {
		return fmt.Errorf("synth %s: a record needs %d bits, more than a packed recording's 64", p.Name, n)
	}
	return nil
}

// visit is one in-flight pattern activation.
type visit struct {
	region  int64
	pc      memtrace.PC
	blocks  []uint8 // emission order
	next    int
	emitted uint64 // bitset of already emitted blocks (for repeats)
	core    uint8
}

// Generator emits trace records; it implements memtrace.Source.
type Generator struct {
	prof      Profile
	tmpl      *Templates
	rng       *rand.Rand
	regions   int64
	active    []*visit
	recent    []int64 // ring of recently visited regions
	recPos    int
	started   int64 // visits started (drift epoch counter)
	nextCPU   uint8
	focus     int // index of the visit currently emitting a burst
	burstLeft int
	// drift memoizes the drift-epoch (> 0) templates, which the shared
	// table does not hold: they are pure functions of their key, and
	// visits never mutate the shared order slices, so caching removes
	// the per-visit PRNG reseed and slice allocations from the
	// generation hot path. Only drifting profiles (DriftEvery > 0) fill
	// it; driftRNG is the reusable source they reseed per derivation.
	drift    map[templateKey]templateVal
	driftRNG *rand.Rand
}

// templateKey identifies one drift-epoch footprint template.
type templateKey struct {
	class, pattern int
	epoch          int64
}

type templateVal struct {
	bits  uint64
	order []uint8
}

// maxCachedTemplates bounds a generator's private drift-epoch memo;
// drift-heavy profiles mint new epochs over time, so the memo resets
// rather than growing without bound (recomputation is correct, just
// slower).
const maxCachedTemplates = 8192

// Templates is the read-only table of a profile's epoch-0 footprint
// templates at one seed: every (class, pattern) template, derived in
// full when the table is built. Templates depend only on the profile's
// classes, its PatternsPerClass and the seed — never on the capacity
// scale or on generator state — so one table can back any number of
// generators, on any number of goroutines, without changing a record.
type Templates struct {
	prof        Profile
	seed        int64
	totalWeight float64 // sum of class weights, in declaration order
	epoch0      []templateVal
}

// NewTemplates validates the profile and derives its epoch-0 template
// table for the seed.
func NewTemplates(prof Profile, seed int64) (*Templates, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	prof.Classes = append([]Class(nil), prof.Classes...)
	t := &Templates{
		prof:   prof,
		seed:   seed,
		epoch0: make([]templateVal, len(prof.Classes)*prof.PatternsPerClass),
	}
	for _, c := range prof.Classes {
		t.totalWeight += c.Weight
	}
	h := rand.New(rand.NewSource(0)) // derive reseeds it per template
	for i := range t.epoch0 {
		t.epoch0[i] = t.derive(h, i/prof.PatternsPerClass, i%prof.PatternsPerClass, 0)
	}
	return t, nil
}

// NewGenerator builds a generator for the profile at the given
// capacity scale (1.0 = paper scale), with a private template table.
// Deterministic for a given seed.
func NewGenerator(prof Profile, seed int64, scale float64) (*Generator, error) {
	t, err := NewTemplates(prof, seed)
	if err != nil {
		return nil, err
	}
	return t.NewGenerator(scale)
}

// NewGenerator builds a generator over the table's profile and seed at
// the given capacity scale. Its records are identical to those of the
// package-level NewGenerator for the same profile, seed and scale; the
// table is only read, and all mutable state is the generator's own.
func (t *Templates) NewGenerator(scale float64) (*Generator, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("synth: scale %g out of (0,1]", scale)
	}
	prof := t.prof
	regions := int64(float64(prof.DatasetBytes)*scale) / RegionBytes
	if regions < 16 {
		regions = 16
	}
	conc := int(float64(prof.Concurrency) * scale)
	if conc < 32 {
		conc = 32
	}
	prof.Concurrency = conc
	if prof.BurstLen <= 0 {
		prof.BurstLen = 8
	}
	recWin := prof.RecencyWindow
	if recWin <= 0 {
		recWin = 4 * conc
	}
	g := &Generator{
		prof:    prof,
		tmpl:    t,
		rng:     rand.New(rand.NewSource(t.seed)),
		regions: regions,
		recent:  make([]int64, 0, recWin),
	}
	for i := 0; i < conc; i++ {
		g.active = append(g.active, g.newVisit())
	}
	return g, nil
}

// Profile returns the (scaled) profile in use.
func (g *Generator) Profile() Profile { return g.prof }

// Regions returns the scaled dataset size in regions.
func (g *Generator) Regions() int64 { return g.regions }

// Next implements memtrace.Source. The generator never exhausts; wrap
// it in memtrace.Limit to bound a run.
func (g *Generator) Next() (memtrace.Record, bool) {
	if g.burstLeft <= 0 {
		g.focus = g.rng.Intn(len(g.active))
		g.burstLeft = 1 + g.rng.Intn(2*g.prof.BurstLen-1)
	}
	g.burstLeft--
	v := g.active[g.focus]

	var block uint8
	if v.next > 0 && g.rng.Float64() < g.prof.RepeatFrac {
		// Intra-page temporal reuse: re-touch an emitted block.
		block = v.blocks[g.rng.Intn(v.next)]
	} else {
		block = v.blocks[v.next]
		v.next++
	}
	v.emitted |= 1 << block

	rec := memtrace.Record{
		PC:    v.pc,
		Addr:  memtrace.Addr(v.region*RegionBytes + int64(block)*64),
		Core:  v.core,
		Write: g.rng.Float64() < g.prof.WriteFrac,
		Gap:   uint32(1 + g.rng.Intn(2*g.prof.GapMean)),
	}

	if v.next >= len(v.blocks) {
		// Visit complete: recycle the slot in place and end the burst.
		g.remember(v.region)
		g.reinitVisit(v)
		g.burstLeft = 0
	}
	return rec, true
}

func (g *Generator) remember(region int64) {
	if cap(g.recent) == 0 {
		return
	}
	if len(g.recent) < cap(g.recent) {
		g.recent = append(g.recent, region)
		return
	}
	g.recent[g.recPos] = region
	g.recPos = (g.recPos + 1) % len(g.recent)
}

// pickClass maps a uniform sample in [0,1) to a class index by
// weight.
func (g *Generator) pickClass(u float64) int {
	x := u * g.tmpl.totalWeight
	for i, c := range g.prof.Classes {
		x -= c.Weight
		if x < 0 {
			return i
		}
	}
	return len(g.prof.Classes) - 1
}

// crossPatternFrac is the probability a visit uses a pattern other
// than its region's dominant one. Structured data is mostly accessed
// by the code that owns it (§3.1), but not exclusively.
const crossPatternFrac = 0.10

// newVisit starts a new pattern activation.
//
// The region is chosen first; each region has a *dominant* pattern
// (derived from a region hash) so that revisits re-run the same code
// against the same data — the code/data correlation the paper's
// predictor exploits and that also gives block-granularity caches
// their temporal reuse.
func (g *Generator) newVisit() *visit {
	v := new(visit)
	g.reinitVisit(v)
	return v
}

// reinitVisit starts a new pattern activation in an existing slot —
// the allocation-free form of newVisit used on the generation hot
// path.
func (g *Generator) reinitVisit(v *visit) {
	g.started++

	var region int64
	if len(g.recent) > 0 && g.rng.Float64() < g.prof.RevisitFrac {
		region = g.recent[g.rng.Intn(len(g.recent))]
	} else {
		region = g.zipfRegion()
	}

	var classIdx, patternID int
	if g.rng.Float64() < crossPatternFrac {
		classIdx = g.pickClass(g.rng.Float64())
		patternID = g.rng.Intn(g.prof.PatternsPerClass)
	} else {
		rh := uint64(region)*0xff51afd7ed558ccd ^ uint64(g.tmpl.seed)
		classIdx = g.pickClass(float64(rh%(1<<20)) / (1 << 20))
		patternID = int((rh >> 20) % uint64(g.prof.PatternsPerClass))
	}

	epoch := int64(0)
	if g.prof.DriftEvery > 0 {
		// A third of the patterns change template each epoch,
		// modelling a dataset built on the fly (SAT Solver, §6.2).
		e := g.started / g.prof.DriftEvery
		if (int64(patternID)+e)%3 == 0 {
			epoch = e
		}
	}
	_, order := g.template(classIdx, patternID, epoch)

	pc := memtrace.PC(pcBase + uint64(classIdx)*pcClassStride + uint64(patternID)*pcPatternStride)
	core := g.nextCPU
	g.nextCPU = (g.nextCPU + 1) % uint8(g.prof.Cores)
	*v = visit{region: region, pc: pc, blocks: order, core: core}
}

// template returns the deterministic footprint for a (class, pattern,
// epoch) triple: the bitset and the emission order. The first element
// of the order defines the (PC, offset) key the predictor will see on
// the triggering miss. Epoch 0 reads the shared table; drift epochs are
// derived on demand into the generator's private memo.
func (g *Generator) template(classIdx, patternID int, epoch int64) (bits uint64, order []uint8) {
	if epoch == 0 {
		t := &g.tmpl.epoch0[classIdx*g.prof.PatternsPerClass+patternID]
		return t.bits, t.order
	}
	key := templateKey{class: classIdx, pattern: patternID, epoch: epoch}
	if t, ok := g.drift[key]; ok {
		return t.bits, t.order
	}
	if g.drift == nil || len(g.drift) >= maxCachedTemplates {
		g.drift = make(map[templateKey]templateVal)
	}
	if g.driftRNG == nil {
		g.driftRNG = rand.New(rand.NewSource(0))
	}
	t := g.tmpl.derive(g.driftRNG, classIdx, patternID, epoch)
	g.drift[key] = t
	return t.bits, t.order
}

// derive computes one template from scratch, reseeding h (whose prior
// state is irrelevant) from the template's key. Visits share the
// returned order slice and never mutate it.
func (t *Templates) derive(h *rand.Rand, classIdx, patternID int, epoch int64) templateVal {
	c := t.prof.Classes[classIdx]
	if c.FullRegion {
		order := make([]uint8, BlocksPerRegion)
		for i := range order {
			order[i] = uint8(i)
		}
		return templateVal{bits: ^uint64(0), order: order}
	}
	h.Seed(t.seed ^ int64(classIdx)<<40 ^ int64(patternID)<<8 ^ epoch<<52 ^ 0x5bd1e995)
	size := c.MinBlocks
	if c.MaxBlocks > c.MinBlocks {
		size += h.Intn(c.MaxBlocks - c.MinBlocks + 1)
	}
	// Templates live within one 32-block (2KB) half of the region so
	// that class density bands translate directly into 2KB-page
	// density buckets (Fig. 4).
	half := uint8(h.Intn(2)) * 32
	window := 32
	if size > window {
		size = window
	}
	order := make([]uint8, size)
	if c.Sequential {
		start := h.Intn(window - size + 1)
		for i := range order {
			order[i] = half + uint8(start+i)
		}
	} else {
		perm := h.Perm(window)
		for i := range order {
			order[i] = half + uint8(perm[i])
		}
	}
	var bits uint64
	for _, b := range order {
		bits |= 1 << b
	}
	return templateVal{bits: bits, order: order}
}

// zipfRegion draws a region with Zipf-like popularity skew using the
// power-law inverse-CDF approximation, then decorrelates rank from
// address with a multiplicative hash so hot regions spread across
// cache sets. Phase-shifting profiles (PhaseEvery) alternate the draw
// between the whole dataset and a small slice at the middle of it.
func (g *Generator) zipfRegion() int64 {
	n := g.regions
	var base int64
	switch {
	case g.prof.PhaseEvery > 0 && (g.started/g.prof.PhaseEvery)%2 == 0:
		// Small phase: a PhaseFrac working set centered in the address
		// space — cache-resident, and out of reach of a low-address
		// memory partition.
		n = g.phaseRegions()
		base = (g.regions - n) / 2
	case g.prof.PhaseEvery > 0 && g.rng.Float64() < g.prof.PhasePinFrac:
		// Scan phase, hot draw: the pinnable hot set at the bottom of
		// the address space. The remaining draws fall through to the
		// whole-dataset scan that pollutes the cache.
		n = g.phaseRegions()
	}
	u := g.rng.Float64()
	var rank int64
	if g.prof.ZipfTheta <= 0 {
		rank = int64(u * float64(n))
	} else {
		rank = int64(math.Pow(u, 1/(1-g.prof.ZipfTheta)) * float64(n))
	}
	if rank >= n {
		rank = n - 1
	}
	// Golden-ratio multiplicative hash, folded into the phase's span.
	h := uint64(rank) * 0x9E3779B97F4A7C15
	return base + int64(h%uint64(n))
}

// phaseRegions is the size, in regions, of a phase-shifting profile's
// confined slices (the small working set and the scan-phase hot set).
func (g *Generator) phaseRegions() int64 {
	n := int64(g.prof.PhaseFrac * float64(g.regions))
	if n < 16 {
		n = 16
	}
	return n
}
