package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// The design-space ablation is an experiment the paper never ran: the
// policy-composable engine sweeps the full allocation x fill x
// mapping cross-product, so the fixed designs of §5.2 become corner
// points of a grid whose interior holds the hybrids (frequency-gated
// footprint fills, Gemini-style mapping switches) that related work
// later explored.

// designSpaceAllocs are the allocation-granularity policies swept.
var designSpaceAllocs = []string{system.KindPage, system.KindSubblock, system.KindFootprint}

// designSpaceFills are the fill policies swept.
var designSpaceFills = []string{system.FillLRU, system.FillHotGate, system.FillBanshee}

// designSpaceMappings are the mapping policies swept.
var designSpaceMappings = []string{system.MapPageDirect, system.MapHybrid}

// DesignSpaceRow is one point of the cross-product at 256MB paper
// scale.
type DesignSpaceRow struct {
	Workload string
	// Design is the normalized composite name ("footprint+banshee").
	Design               string
	Alloc, Mapping, Fill string
	MissRatio            float64
	HitRatio             float64
	// BypassRatio is bypasses over accesses (gated fills serve many
	// misses without allocating).
	BypassRatio float64
	// OffChipBytesPerRef is the off-chip traffic per reference.
	OffChipBytesPerRef float64
	// StackedRowHitRatio exposes the mapping policy's row locality.
	StackedRowHitRatio float64
}

// DesignSpaceRows sweeps the allocation x fill x mapping cross-product
// over the options' workloads at 256MB, fanning every point out over
// the sweep pool.
func DesignSpaceRows(o Options) ([]DesignSpaceRow, error) {
	o = o.withDefaults()
	type combo struct{ alloc, mapping, fill string }
	var combos []combo
	for _, a := range designSpaceAllocs {
		for _, m := range designSpaceMappings {
			for _, f := range designSpaceFills {
				combos = append(combos, combo{a, m, f})
			}
		}
	}
	type point struct {
		workload string
		c        combo
	}
	var pts []point
	for _, wl := range o.Workloads {
		for _, c := range combos {
			pts = append(pts, point{wl, c})
		}
	}
	return pmap(o, len(pts), byWorkload(o.Workloads, len(combos)), func(i int) (DesignSpaceRow, error) {
		pt := pts[i]
		res, err := o.buildFunctional(system.DesignSpec{
			Alloc: pt.c.alloc, Mapping: pt.c.mapping, Fill: pt.c.fill,
			PaperCapacityMB: 256, Scale: o.Scale,
		}, pt.workload)
		if err != nil {
			return DesignSpaceRow{}, err
		}
		row := DesignSpaceRow{
			Workload: pt.workload,
			Design:   res.Design,
			Alloc:    pt.c.alloc, Mapping: pt.c.mapping, Fill: pt.c.fill,
			MissRatio:          res.MissRatio(),
			HitRatio:           res.Counters.HitRatio(),
			OffChipBytesPerRef: res.OffChipBytesPerRef(),
			StackedRowHitRatio: res.Stacked.RowHitRatio(),
		}
		if acc := res.Counters.Accesses(); acc > 0 {
			row.BypassRatio = float64(res.Counters.Bypasses) / float64(acc)
		}
		return row, nil
	})
}

// DesignSpace renders the cross-product table.
func DesignSpace(o Options, w io.Writer) error {
	rows, err := DesignSpaceRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Design space: allocation x mapping x fill cross-product, 256MB (composable engine; paper designs are corner points)")
	var t stats.Table
	t.Header("workload", "design", "alloc", "mapping", "fill", "miss", "hit", "bypass", "offB/ref", "stk row hit")
	for _, r := range rows {
		t.Row(r.Workload, r.Design, r.Alloc, r.Mapping, r.Fill,
			stats.Pct(r.MissRatio), stats.Pct(r.HitRatio), stats.Pct(r.BypassRatio),
			fmt.Sprintf("%.1f", r.OffChipBytesPerRef), stats.Pct(r.StackedRowHitRatio))
	}
	_, err = io.WriteString(w, t.String())
	return err
}
