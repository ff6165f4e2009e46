package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/dcache"
	"fpcache/internal/dram"
	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// Figure1Row is one workload's opportunity measurement.
type Figure1Row struct {
	Workload string
	// HighBW is the performance improvement of a die-stacked main
	// memory with 8x the baseline's bandwidth at baseline latency.
	HighBW float64
	// HighBWLowLat additionally halves the DRAM timing (§1, after
	// [24]).
	HighBWLowLat float64
}

// highBWConfig is the stacked-as-main-memory configuration: four
// 128-bit TSV channels (8x the off-chip bandwidth) clocked so that
// per-operation latency matches the 2D baseline.
func highBWConfig(halfLatency bool) dram.Config {
	cfg := dram.StackedDDR3_3200()
	cfg.Name = "stacked-main-memory"
	cfg.CPUPerBusCy = dram.OffChipDDR3_1600().CPUPerBusCy
	cfg.Policy = dram.ClosePage
	cfg.InterleaveBytes = 64
	if halfLatency {
		// Halve every per-operation latency; the refresh interval is
		// cadence, not latency, so it stays put (tRFC halves with the
		// rest).
		t := cfg.Timing
		t.TCAS /= 2
		t.TRCD /= 2
		t.TRP /= 2
		t.TRAS /= 2
		t.TRC /= 2
		t.TWR /= 2
		t.TWTR /= 2
		t.TRTW /= 2
		t.TRTP /= 2
		t.TRRD /= 2
		t.TFAW /= 2
		t.TRFC /= 2
		cfg.Timing = t
	}
	return cfg
}

// Figure1Rows computes the opportunity study. The three timing runs
// of every workload (baseline pod, high-BW stacked memory, and its
// half-latency variant) are independent simulation points, swept in
// parallel.
func Figure1Rows(o Options) ([]Figure1Row, error) {
	o = o.withDefaults()
	const variants = 3 // baseline, high-BW, high-BW + low-latency
	ipcs, err := pmap(o, variants*len(o.Workloads), byWorkload(o.Workloads, variants), func(i int) (float64, error) {
		wl, variant := o.Workloads[i/variants], i%variants
		if variant == 0 {
			res, err := o.runTiming(dcache.NewBaseline(), wl)
			if err != nil {
				return 0, err
			}
			return res.AggIPC(), nil
		}
		src, prof, err := o.trace(wl)
		if err != nil {
			return 0, err
		}
		cfg := highBWConfig(variant == 2)
		res, err := system.RunTiming(dcache.NewIdeal(), src, system.TimingConfig{
			Cores:      prof.Cores,
			MLP:        prof.MLP,
			WarmupRefs: o.WarmupRefs,
			MaxRefs:    o.TimingRefs,
			Stacked:    &cfg,
		})
		if err != nil {
			return 0, err
		}
		return res.AggIPC(), nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Figure1Row
	for wi, wl := range o.Workloads {
		base := ipcs[wi*variants]
		rows = append(rows, Figure1Row{
			Workload:     wl,
			HighBW:       ipcs[wi*variants+1]/base - 1,
			HighBWLowLat: ipcs[wi*variants+2]/base - 1,
		})
	}
	return rows, nil
}

// Figure1 renders the opportunity study.
func Figure1(o Options, w io.Writer) error {
	rows, err := Figure1Rows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1: performance opportunity of high-bandwidth, low-latency die-stacked main memory")
	var t stats.Table
	t.Header("workload", "high-BW", "high-BW & low-latency")
	for _, r := range rows {
		t.Row(r.Workload, stats.Pct(r.HighBW), stats.Pct(r.HighBWLowLat))
	}
	_, err = io.WriteString(w, t.String())
	return err
}
