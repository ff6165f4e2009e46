package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/dcache"
	"fpcache/internal/stats"
)

// CoverageFractions are Figure 12's x-axis points.
var CoverageFractions = []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80}

// Figure12Row is one workload's hot-page coverage curve: the minimum
// ideal cache size needed to capture each fraction of accesses.
type Figure12Row struct {
	Workload string
	// SizesMB is aligned with CoverageFractions, in paper-equivalent
	// MB (the measured scaled size divided by the scale factor).
	SizesMB []float64
}

// Figure12Rows reproduces the hot-page analysis of §6.7: assuming a
// perfect predictor and ideal replacement, how much cache is needed
// to cover a given fraction of accesses at 4KB page granularity? For
// scale-out datasets the answer is enormous — which is why CHOP-style
// per-page hotness prediction fails on them.
func Figure12Rows(o Options) ([]Figure12Row, error) {
	o = o.withDefaults()
	const pageBytes = 4096 // CHOP's optimal page size (§6.7)
	return pmap(o, len(o.Workloads), byWorkload(o.Workloads, 1), func(i int) (Figure12Row, error) {
		wl := o.Workloads[i]
		src, _, err := o.trace(wl)
		if err != nil {
			return Figure12Row{}, err
		}
		counts := make(map[uint64]uint64)
		total := o.WarmupRefs + o.Refs
		for r := 0; r < total; r++ {
			rec, ok := src.Next()
			if !ok {
				break
			}
			counts[uint64(rec.Addr)/pageBytes]++
		}
		sizes := dcache.CoverageCurve(counts, pageBytes, CoverageFractions)
		row := Figure12Row{Workload: wl}
		for _, s := range sizes {
			row.SizesMB = append(row.SizesMB, float64(s)/o.Scale/(1<<20))
		}
		return row, nil
	})
}

// Figure12 renders the coverage curves.
func Figure12(o Options, w io.Writer) error {
	rows, err := Figure12Rows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 12: minimum ideal cache size (paper-equivalent MB) to cover a fraction of accesses (4KB pages)")
	var t stats.Table
	hdr := []string{"workload"}
	for _, f := range CoverageFractions {
		hdr = append(hdr, fmt.Sprintf("%.0f%%", 100*f))
	}
	t.Header(hdr...)
	for _, r := range rows {
		cells := []string{r.Workload}
		for _, s := range r.SizesMB {
			cells = append(cells, fmt.Sprintf("%.0f", s))
		}
		t.Row(cells...)
	}
	_, err = io.WriteString(w, t.String())
	return err
}
