package dcache

import (
	"testing"

	"fpcache/internal/memtrace"
)

func testEngine(t *testing.T, alloc AllocPolicy, mapping MappingPolicy) *Engine {
	t.Helper()
	geom := PageGeometry{CapacityBytes: 1 << 20, PageBytes: 2048, Ways: 4}
	e, err := NewEngine(EngineConfig{Name: "test", Geometry: geom, TagCycles: 3, Alloc: alloc, Mapping: mapping})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestGateCountersFollowOutcomes pins the gate's counter
// classification to the inner engine's outcomes: a resident-page
// block miss under partial allocation must count as a miss at the
// gate, not a hit (a gate over whole-page allocation never sees a
// block miss, so only partial allocation exercises this).
func TestGateCountersFollowOutcomes(t *testing.T) {
	eng := testEngine(t, DemandAlloc{}, PageDirectMapping{PageBytes: 2048})
	g, err := NewGate(GateConfig{Name: "test+banshee", Engine: eng, Policy: BansheeGatePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(addr memtrace.Addr) memtrace.Record { return memtrace.Record{Addr: addr} }

	var ops []Op
	// Cold page, empty set: banshee admits (count 1 > victim freq 0).
	out := g.Access(rec(0), ops)
	if out.Hit || out.Bypass {
		t.Fatalf("first touch: %+v", out)
	}
	// Resident page, block 1 absent: inner block miss — gate must
	// report a miss.
	out = g.Access(rec(64), out.Ops)
	if out.Hit {
		t.Fatal("resident block miss reported as hit")
	}
	// Resident page, block 0 present: genuine hit.
	out = g.Access(rec(0), out.Ops)
	if !out.Hit {
		t.Fatal("resident block hit not reported")
	}

	ctr := g.Counters()
	if ctr.Hits != 1 || ctr.Misses != 2 || ctr.Bypasses != 0 {
		t.Fatalf("gate counters = %+v, want 1 hit / 2 misses / 0 bypasses", ctr)
	}
	if got := ctr.Accesses(); got != 3 {
		t.Fatalf("accesses = %d", got)
	}
}

// TestEngineOpsValid checks every outcome of every policy combination
// against the structural Op invariants (dependencies, sizes,
// criticality), including the spread emission paths.
func TestEngineOpsValid(t *testing.T) {
	geom := PageGeometry{CapacityBytes: 1 << 20, PageBytes: 2048, Ways: 4}
	frames := geom.CapacityBytes / int64(geom.PageBytes)
	allocs := []AllocPolicy{PageAlloc{}, DemandAlloc{}}
	mappings := []MappingPolicy{
		PageDirectMapping{PageBytes: geom.PageBytes},
		BlockRowMapping{Frames: frames},
		HybridMapping{PageBytes: geom.PageBytes, Frames: frames},
	}
	for _, a := range allocs {
		for _, m := range mappings {
			e := testEngine(t, a, m)
			var ops []Op
			for i := 0; i < 20000; i++ {
				addr := memtrace.Addr((i * 2897) % (1 << 22) * 64)
				out := e.Access(memtrace.Record{Addr: addr, Write: i%3 == 0}, ops)
				if err := ValidateOps(out.Ops); err != nil {
					t.Fatalf("%s/%s access %d: %v", a.Name(), m.Name(), i, err)
				}
				ops = out.Ops
			}
			c := e.Counters()
			if c.Accesses() != 20000 || c.Hits+c.Misses != 20000 {
				t.Fatalf("%s/%s: inconsistent counters %+v", a.Name(), m.Name(), c)
			}
			if c.PageEvicts == 0 {
				t.Fatalf("%s/%s: footprint too small to exercise evictions", a.Name(), m.Name())
			}
		}
	}
}
