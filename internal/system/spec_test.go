package system

import (
	"testing"

	"fpcache/internal/core"
	"fpcache/internal/dcache"
	"fpcache/internal/testutil"
)

// FuzzDesignSpec drives the composite design grammar: any spec string
// either builds a design that reports its normalised name and emits
// valid operations over a random trace, or fails with an error.
//
//	go test -run '^$' -fuzz FuzzDesignSpec -fuzztime 20s ./internal/system
func FuzzDesignSpec(f *testing.F) {
	seeds := []string{
		KindBaseline, KindBlock, KindHotPage, KindIdeal,
		"footprint+banshee", "subblock+hybrid+hotgate", "hotpage+blockrow+memcache:10",
		"page+footprint", "memcache:100", "",
	}
	seeds = append(seeds, AllocPolicies()...)
	seeds = append(seeds, MappingPolicies()...)
	seeds = append(seeds, FillPolicies()...)
	for _, p := range PartitionPolicies() {
		seeds = append(seeds, p+":50")
	}
	for _, s := range seeds {
		f.Add(s, int64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		name, nerr := NormalizeKind(spec)
		if nerr == nil {
			again, err := NormalizeKind(name)
			if err != nil || again != name {
				t.Fatalf("NormalizeKind(%q) = %q, but NormalizeKind(%q) = %q, %v", spec, name, name, again, err)
			}
		}
		d, err := BuildDesign(DesignSpec{Kind: spec, PaperCapacityMB: 64, Scale: 1.0 / 64})
		if err != nil {
			return
		}
		if nerr != nil {
			t.Fatalf("BuildDesign(%q) built %q, but NormalizeKind failed: %v", spec, d.Name(), nerr)
		}
		if d.Name() != name {
			t.Fatalf("BuildDesign(%q).Name() = %q, NormalizeKind = %q", spec, d.Name(), name)
		}
		trace := testutil.RandomTrace(2_000, seed, 4)
		var ops []dcache.Op
		for i := 0; ; i++ {
			rec, ok := trace.Next()
			if !ok {
				break
			}
			out := d.Access(rec, ops)
			if err := dcache.ValidateOps(out.Ops); err != nil {
				t.Fatalf("%s: record %d: %v", name, i, err)
			}
			ops = out.Ops
		}
		if c := d.Counters(); c.Hits+c.Misses != c.Accesses() || c.Accesses() != 2_000 {
			t.Fatalf("%s: hits %d + misses %d vs accesses %d of 2000", name, c.Hits, c.Misses, c.Accesses())
		}
	})
}

// TestTable4BudgetsMatchEngine pins the SRAM budgets the engine
// reports to the formulas Table 4 prints (experiments/table4.go).
func TestTable4BudgetsMatchEngine(t *testing.T) {
	for _, mb := range []int{64, 256} {
		capBytes := int64(mb) << 20
		want := map[string]int64{
			KindPage:      dcache.PageMetadataBits(dcache.PageGeometry{CapacityBytes: capBytes, PageBytes: 2048, Ways: 16}),
			KindFootprint: core.MetadataBits(core.Default(capBytes)),
		}
		for kind, bits := range want {
			d, err := BuildDesign(DesignSpec{Kind: kind, PaperCapacityMB: mb, Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := d.MetadataBits(); got != bits {
				t.Errorf("%s at %dMB: engine reports %d bits, Table 4 formula %d", kind, mb, got, bits)
			}
		}
	}
}
