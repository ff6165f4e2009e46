package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/dcache"
	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// DensityBuckets are Figure 4's page-density bins for 2KB pages (32
// blocks): 1, 2-3, 4-7, 8-15, 16-31, 32 demanded blocks.
var DensityBuckets = []string{"1", "2-3", "4-7", "8-15", "16-31", "32"}

// Figure4Row is the density histogram of one (workload, capacity)
// point: fraction of evicted pages per bucket.
type Figure4Row struct {
	Workload   string
	CapacityMB int
	Fractions  [6]float64
	Pages      int64
}

// Figure4Rows measures page access density as a function of cache
// capacity, observed at eviction time from a page-based cache exactly
// as Footprint Cache's demanded vectors would record it (§6.1).
func Figure4Rows(o Options) ([]Figure4Row, error) {
	o = o.withDefaults()
	pts := o.grid()
	return pmap(o, len(pts), byWorkload(o.Workloads, len(o.Capacities)), func(i int) (Figure4Row, error) {
		wl, mb := pts[i].workload, pts[i].capacityMB
		design, err := system.BuildDesign(system.DesignSpec{
			Kind: system.KindPage, PaperCapacityMB: mb, Scale: o.Scale,
		})
		if err != nil {
			return Figure4Row{}, err
		}
		eng := design.(*dcache.Engine)
		h := stats.NewHistogram(1, 3, 7, 15, 31, 32)
		eng.OnEvict = func(demanded, pageBlocks int) {
			if demanded > 0 {
				h.Add(int64(demanded))
			}
		}
		if _, err := o.runFunctional(design, wl); err != nil {
			return Figure4Row{}, err
		}
		row := Figure4Row{Workload: wl, CapacityMB: mb, Pages: h.Total()}
		for b := 0; b < 6; b++ {
			row.Fractions[b] = h.Fraction(b)
		}
		return row, nil
	})
}

// Figure4 renders the density histograms.
func Figure4(o Options, w io.Writer) error {
	rows, err := Figure4Rows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 4: page access density vs cache capacity (2KB pages, fraction of evicted pages)")
	var t stats.Table
	t.Header("workload", "capacity", DensityBuckets[0], DensityBuckets[1], DensityBuckets[2], DensityBuckets[3], DensityBuckets[4], DensityBuckets[5])
	for _, r := range rows {
		t.Row(r.Workload, fmt.Sprintf("%dMB", r.CapacityMB),
			stats.Pct(r.Fractions[0]), stats.Pct(r.Fractions[1]), stats.Pct(r.Fractions[2]),
			stats.Pct(r.Fractions[3]), stats.Pct(r.Fractions[4]), stats.Pct(r.Fractions[5]))
	}
	_, err = io.WriteString(w, t.String())
	return err
}
