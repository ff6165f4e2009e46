package core

import (
	"fmt"
	"testing"

	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
	"fpcache/internal/testutil"
)

// TestReferenceModelMatchesEngine runs the reference model
// (refmodel_test.go) beside the composed engine over the golden parity
// grid of internal/system: the same seed-7 traces at scale 1/64 and
// the 80k records that grid warms and measures on. The FHT and ST are
// sized past the trace's distinct keys (Fig. 9's saturation point), so
// the engine's set-associative tables must behave like the model's
// unbounded ones, and every counter must agree exactly.
func TestReferenceModelMatchesEngine(t *testing.T) {
	const scale, refs = 1.0 / 64, 80_000
	kinds := []struct {
		name, alloc      string
		singleton, union bool
	}{
		{"page", "page", false, false},
		{"subblock", "subblock", false, false},
		{"footprint", "footprint", true, false},
		{"footprint-nosingleton", "footprint", false, false},
		{"footprint-union", "footprint", true, true},
	}
	for _, wl := range []string{"web-search", "mapreduce"} {
		trace := make([]memtrace.Record, 0, refs)
		pcKeys, pages := map[fhtKey]bool{}, map[uint64]bool{}
		src := testutil.SynthTrace(t, wl, 7, scale)
		for len(trace) < refs {
			rec, ok := src.Next()
			if !ok {
				t.Fatalf("%s: trace ended at %d records", wl, len(trace))
			}
			trace = append(trace, rec)
			pcKeys[fhtKey{rec.PC, int(rec.Addr % 2048 / 64)}] = true
			pages[uint64(rec.Addr)/2048] = true
		}
		for _, k := range kinds {
			for _, mb := range []int{64, 256} {
				t.Run(fmt.Sprintf("%s/%s/%dMB", wl, k.name, mb), func(t *testing.T) {
					capBytes := int64(float64(int64(mb)<<20) * scale)
					model := newRefModel(k.alloc, k.singleton, k.union, capBytes, 2048, 16)
					cfg := Default(capBytes)
					cfg.FHTEntries, cfg.FHTWays = tableEntries(len(pcKeys)), 64
					cfg.STEntries, cfg.STWays = tableEntries(len(pages)), 64
					cfg.SingletonOpt = k.singleton
					if k.union {
						cfg.Feedback = FeedbackUnion
					}
					fp, err := NewFootprintPolicy(cfg)
					if err != nil {
						t.Fatal(err)
					}
					alloc := map[string]dcache.AllocPolicy{"page": dcache.PageAlloc{}, "subblock": dcache.DemandAlloc{}, "footprint": fp}[k.alloc]
					eng, err := dcache.NewEngine(dcache.EngineConfig{
						Name: k.name, Geometry: cfg.Geometry, Alloc: alloc,
						Mapping: dcache.PageDirectMapping{PageBytes: 2048},
					})
					if err != nil {
						t.Fatal(err)
					}
					var densities []int
					eng.OnEvict = func(d, _ int) { densities = append(densities, d) }
					var ops []dcache.Op
					for _, rec := range trace {
						ops = eng.Access(rec, ops).Ops
						model.access(rec)
					}

					if got := eng.Counters(); got != model.ctr {
						t.Errorf("counters: engine %+v, model %+v", got, model.ctr)
					}
					if fmt.Sprint(densities) != fmt.Sprint(model.densities) {
						t.Errorf("eviction densities diverge: engine %d evictions, model %d", len(densities), len(model.densities))
					}
					if k.alloc != "footprint" {
						return
					}
					if fp.fht.arr.Evictions != 0 || fp.st.arr.Evictions != 0 {
						t.Fatalf("tables too small for the trace: FHT evicted %d, ST evicted %d", fp.fht.arr.Evictions, fp.st.arr.Evictions)
					}
					if got := fp.Extra(); got != model.extra {
						t.Errorf("footprint stats: engine %+v, model %+v", got, model.extra)
					}
					q, cold, upd := fp.FHTStats()
					if q != model.queries || cold != model.cold || upd != model.updates {
						t.Errorf("FHT queries/cold/updates: engine %d/%d/%d, model %d/%d/%d", q, cold, upd, model.queries, model.cold, model.updates)
					}
					if model.ctr.PageEvicts == 0 || model.extra.SingletonBypasses+model.extra.UnderpredMisses == 0 {
						t.Errorf("trace exercised too little: %+v %+v", model.ctr, model.extra)
					}
				})
			}
		}
	}
}

// tableEntries sizes a predictor table at four entries per distinct
// key (64-way, power of two) so no set overflows.
func tableEntries(keys int) int {
	n := 64
	for n < 4*keys {
		n *= 2
	}
	return n
}
