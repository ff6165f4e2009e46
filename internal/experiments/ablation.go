package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// SingletonRow is one (workload, capacity) point of the §6.5
// ablation: miss ratio with and without the singleton-page capacity
// optimization.
type SingletonRow struct {
	Workload    string
	CapacityMB  int
	MissWith    float64
	MissWithout float64
}

// Reduction is the relative miss-rate reduction the optimization
// buys.
func (r SingletonRow) Reduction() float64 {
	if r.MissWithout == 0 {
		return 0
	}
	return 1 - r.MissWith/r.MissWithout
}

// SingletonRows runs the capacity-optimization ablation. The paper
// reports ~10% average miss-rate reduction, strongest at small
// capacities where effective capacity matters most (§4.4, §6.5).
func SingletonRows(o Options) ([]SingletonRow, error) {
	o = o.withDefaults()
	kinds := []string{system.KindFootprint, system.KindFootprintNoSingleton}
	pts := o.grid()
	miss, err := pmap(o, len(pts)*len(kinds), byWorkload(o.Workloads, len(o.Capacities)*len(kinds)), func(i int) (float64, error) {
		pt, kind := pts[i/len(kinds)], kinds[i%len(kinds)]
		res, err := o.buildFunctional(system.DesignSpec{
			Kind: kind, PaperCapacityMB: pt.capacityMB, Scale: o.Scale,
		}, pt.workload)
		if err != nil {
			return 0, err
		}
		return res.MissRatio(), nil
	})
	if err != nil {
		return nil, err
	}
	var rows []SingletonRow
	for pi, pt := range pts {
		rows = append(rows, SingletonRow{
			Workload:    pt.workload,
			CapacityMB:  pt.capacityMB,
			MissWith:    miss[pi*2],
			MissWithout: miss[pi*2+1],
		})
	}
	return rows, nil
}

// FetchPolicyRow is one point of the §3.1 fetch-policy ablation:
// sub-blocked caches bound underprediction cost, page-based caches
// bound overprediction cost, Footprint sits between.
type FetchPolicyRow struct {
	Workload string
	// Miss ratios and off-chip bytes per reference at 256MB.
	MissSubblock, MissFootprint, MissPage    float64
	BytesSubblock, BytesFootprint, BytesPage float64
}

// FetchPolicyRows runs the fetch-policy ablation at 256MB.
func FetchPolicyRows(o Options) ([]FetchPolicyRow, error) {
	o = o.withDefaults()
	kinds := []string{system.KindSubblock, system.KindFootprint, system.KindPage}
	type meas struct{ miss, bytesPerRef float64 }
	res, err := pmap(o, len(o.Workloads)*len(kinds), byWorkload(o.Workloads, len(kinds)), func(i int) (meas, error) {
		wl, kind := o.Workloads[i/len(kinds)], kinds[i%len(kinds)]
		r, err := o.buildFunctional(system.DesignSpec{
			Kind: kind, PaperCapacityMB: 256, Scale: o.Scale,
		}, wl)
		if err != nil {
			return meas{}, err
		}
		return meas{r.MissRatio(), r.OffChipBytesPerRef()}, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []FetchPolicyRow
	for wi, wl := range o.Workloads {
		m := res[wi*len(kinds) : (wi+1)*len(kinds)]
		rows = append(rows, FetchPolicyRow{
			Workload:       wl,
			MissSubblock:   m[0].miss,
			MissFootprint:  m[1].miss,
			MissPage:       m[2].miss,
			BytesSubblock:  m[0].bytesPerRef,
			BytesFootprint: m[1].bytesPerRef,
			BytesPage:      m[2].bytesPerRef,
		})
	}
	return rows, nil
}

// FeedbackRow is one point of the FHT feedback-policy ablation: the
// paper's replace-with-most-recent policy (§4.2) vs accumulating
// unions, at 256MB.
type FeedbackRow struct {
	Workload string
	// Replace / Union miss ratios, coverage, and off-chip bytes/ref.
	MissReplace, MissUnion   float64
	CoverReplace, CoverUnion float64
	OverReplace, OverUnion   float64
	BytesReplace, BytesUnion float64
}

// FeedbackRows runs the feedback-policy ablation. Union feedback can
// only grow footprints, so coverage rises and so does overfetch; the
// paper's replace policy tracks phase changes instead.
func FeedbackRows(o Options) ([]FeedbackRow, error) {
	o = o.withDefaults()
	kinds := []string{system.KindFootprint, system.KindFootprintUnion}
	type meas struct{ miss, bytesPerRef, cover, over float64 }
	res, err := pmap(o, len(o.Workloads)*len(kinds), byWorkload(o.Workloads, len(kinds)), func(i int) (meas, error) {
		wl, kind := o.Workloads[i/len(kinds)], kinds[i%len(kinds)]
		r, err := o.buildFunctional(system.DesignSpec{
			Kind: kind, PaperCapacityMB: 256, Scale: o.Scale,
		}, wl)
		if err != nil {
			return meas{}, err
		}
		fp := r.Footprint
		if fp == nil {
			return meas{}, fmt.Errorf("feedback ablation: no footprint stats for %s/%s", wl, kind)
		}
		return meas{r.MissRatio(), r.OffChipBytesPerRef(), fp.Coverage(), fp.Overprediction()}, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []FeedbackRow
	for wi, wl := range o.Workloads {
		repl, union := res[wi*2], res[wi*2+1]
		rows = append(rows, FeedbackRow{
			Workload:     wl,
			MissReplace:  repl.miss,
			MissUnion:    union.miss,
			CoverReplace: repl.cover,
			CoverUnion:   union.cover,
			OverReplace:  repl.over,
			OverUnion:    union.over,
			BytesReplace: repl.bytesPerRef,
			BytesUnion:   union.bytesPerRef,
		})
	}
	return rows, nil
}

// AblationRowSet bundles the three ablation studies for
// machine-readable output.
type AblationRowSet struct {
	Singleton   []SingletonRow
	FetchPolicy []FetchPolicyRow
	Feedback    []FeedbackRow
}

// AblationRows computes all three ablation studies.
func AblationRows(o Options) (AblationRowSet, error) {
	o = o.withDefaults() // the three studies share one template cache
	var set AblationRowSet
	var err error
	if set.Singleton, err = SingletonRows(o); err != nil {
		return AblationRowSet{}, err
	}
	if set.FetchPolicy, err = FetchPolicyRows(o); err != nil {
		return AblationRowSet{}, err
	}
	if set.Feedback, err = FeedbackRows(o); err != nil {
		return AblationRowSet{}, err
	}
	return set, nil
}

// Ablations renders both ablation studies.
func Ablations(o Options, w io.Writer) error {
	sing, err := SingletonRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation (§6.5): singleton-page capacity optimization — miss ratio with/without")
	var t stats.Table
	t.Header("workload", "capacity", "with", "without", "reduction")
	var reds []float64
	for _, r := range sing {
		t.Row(r.Workload, fmt.Sprintf("%dMB", r.CapacityMB),
			stats.Pct(r.MissWith), stats.Pct(r.MissWithout), stats.Pct(r.Reduction()))
		if r.MissWithout > 0 {
			reds = append(reds, r.MissWith/r.MissWithout)
		}
	}
	if len(reds) > 0 {
		t.Row("average", "", "", "", stats.Pct(1-stats.GeoMean(reds)))
	}
	if _, err := io.WriteString(w, t.String()); err != nil {
		return err
	}

	fetch, err := FetchPolicyRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nAblation (§3.1): fetch policy — sub-blocked (no overprediction) vs footprint vs page (no underprediction), 256MB")
	var f stats.Table
	f.Header("workload", "miss sub", "miss fp", "miss page", "offB/ref sub", "offB/ref fp", "offB/ref page")
	for _, r := range fetch {
		f.Row(r.Workload,
			stats.Pct(r.MissSubblock), stats.Pct(r.MissFootprint), stats.Pct(r.MissPage),
			fmt.Sprintf("%.1f", r.BytesSubblock), fmt.Sprintf("%.1f", r.BytesFootprint), fmt.Sprintf("%.1f", r.BytesPage))
	}
	if _, err := io.WriteString(w, f.String()); err != nil {
		return err
	}

	fb, err := FeedbackRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nAblation (§4.2): FHT feedback — replace-with-most-recent (paper) vs accumulate-union, 256MB")
	var g stats.Table
	g.Header("workload", "miss repl", "miss union", "cover repl", "cover union", "over repl", "over union", "offB/ref repl", "offB/ref union")
	for _, r := range fb {
		g.Row(r.Workload,
			stats.Pct(r.MissReplace), stats.Pct(r.MissUnion),
			stats.Pct(r.CoverReplace), stats.Pct(r.CoverUnion),
			stats.Pct(r.OverReplace), stats.Pct(r.OverUnion),
			fmt.Sprintf("%.1f", r.BytesReplace), fmt.Sprintf("%.1f", r.BytesUnion))
	}
	_, err = io.WriteString(w, g.String())
	return err
}
