package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// LatencyRow is one (workload, design, capacity) read-latency
// distribution: the mean and the p50/p90/p99 percentiles of the
// end-to-end read latency (issue to completion, CPU cycles), plus the
// run's aggregate IPC for cross-reference against Figures 6-7.
type LatencyRow struct {
	Workload   string
	Design     string
	CapacityMB int
	AvgCycles  float64
	P50        float64
	P90        float64
	P99        float64
	IPC        float64
}

// latencyDesigns are the cache designs the distribution study sweeps —
// the same three the paper's latency discussion (§6.3) contrasts.
var latencyDesigns = []string{system.KindBlock, system.KindPage, system.KindFootprint}

// LatencyRows sweeps the read-latency distribution over the
// (workload, design, capacity) grid. Not a paper figure: the paper
// reports only average latencies, but the command-level controller
// (write drain, refresh, turnaround) makes the tail observable, and
// tails are where DRAM-cache scheduling artifacts hide.
func LatencyRows(o Options) ([]LatencyRow, error) {
	o = o.withDefaults()
	nPer := len(latencyDesigns) * len(o.Capacities)
	rows, err := pmap(o, len(o.Workloads)*nPer, byWorkload(o.Workloads, nPer), func(i int) (LatencyRow, error) {
		wl := o.Workloads[i/nPer]
		mb := o.Capacities[i%nPer/len(latencyDesigns)]
		kind := latencyDesigns[i%len(latencyDesigns)]
		res, err := o.buildTiming(system.DesignSpec{
			Kind: kind, PaperCapacityMB: mb, Scale: o.Scale,
		}, wl)
		if err != nil {
			return LatencyRow{}, err
		}
		return LatencyRow{
			Workload:   wl,
			Design:     kind,
			CapacityMB: mb,
			AvgCycles:  res.AvgReadLatency,
			P50:        res.ReadLatencyP50,
			P90:        res.ReadLatencyP90,
			P99:        res.ReadLatencyP99,
			IPC:        res.AggIPC(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Latency renders the read-latency distribution study.
func Latency(o Options, w io.Writer) error {
	rows, err := LatencyRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Latency: read-latency distribution by design (CPU cycles)")
	var t stats.Table
	t.Header("workload", "design", "capacity", "avg", "p50", "p90", "p99", "IPC")
	for _, r := range rows {
		t.Row(r.Workload, r.Design, fmt.Sprintf("%dMB", r.CapacityMB),
			fmt.Sprintf("%.0f", r.AvgCycles),
			fmt.Sprintf("%.0f", r.P50),
			fmt.Sprintf("%.0f", r.P90),
			fmt.Sprintf("%.0f", r.P99),
			fmt.Sprintf("%.3f", r.IPC))
	}
	_, err = io.WriteString(w, t.String())
	return err
}
