package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/stats"
	"fpcache/internal/system"
)

// The partition study is an experiment beyond the paper: following
// Bakhshalipour et al.'s memory/cache/memcache question, it splits
// the stacked capacity between directly addressed memory and the
// Footprint cache engine and sweeps the split point — statically
// across fractions, and dynamically through the consistent-hash
// resize driver, which moves the split mid-run without flushing the
// whole tag space.

// partitionMemPcts are the static memory shares swept (percent of
// stacked capacity dedicated to the part-of-memory region; 0 is the
// plain cache corner).
var partitionMemPcts = []int{0, 25, 50, 75}

// partitionCapacityMB fixes the study at the paper's headline
// capacity; the fraction axis replaces the capacity axis.
const partitionCapacityMB = 256

// PartitionRow is one (workload, memory share) point: functional-grade
// hit/miss/traffic plus the timing run's read-latency distribution and
// IPC. Dynamic rows exercise the resize driver — the split oscillates
// between 25% and 75% memory over the measured window — and report the
// resize transition counters.
type PartitionRow struct {
	Workload string
	// Design is the full composite spec ("footprint+memcache:50").
	Design string
	// MemPct is the memory share in percent (the starting share for
	// dynamic rows).
	MemPct int
	// Dynamic marks the resize-schedule row.
	Dynamic bool
	// MemHitRatio is the fraction of accesses served by the
	// part-of-memory region (no tag lookup).
	MemHitRatio        float64
	HitRatio           float64
	MissRatio          float64
	OffChipBytesPerRef float64
	AvgCycles          float64
	P50                float64
	P90                float64
	P99                float64
	IPC                float64
	// Resizes / FlushedPages / MovedPages count resize transitions
	// (dynamic rows only): splits applied, pages flushed out of dying
	// sets or purged into the memory region, pages re-homed by grows.
	Resizes      uint64
	FlushedPages uint64
	MovedPages   uint64
}

// PartitionRows sweeps the memory/cache split of a Footprint-based
// stacked design: one timing point per (workload, static share) cell
// plus one dynamic point per workload driven by a resize schedule.
func PartitionRows(o Options) ([]PartitionRow, error) {
	o = o.withDefaults()
	nPer := len(partitionMemPcts) + 1 // static shares + the dynamic row
	rows, err := pmap(o, len(o.Workloads)*nPer, byWorkload(o.Workloads, nPer), func(i int) (PartitionRow, error) {
		wl := o.Workloads[i/nPer]
		j := i % nPer
		dynamic := j == len(partitionMemPcts)
		pct := 50
		var plan *system.ResizePlan
		if dynamic {
			// Oscillate the split across the measured window: four
			// resizes between 25% and 75% memory.
			period := o.TimingRefs / 4
			if period < 1 {
				period = 1
			}
			plan = &system.ResizePlan{PeriodRefs: period, Fractions: []float64{0.25, 0.75}}
		} else {
			pct = partitionMemPcts[j]
		}
		spec := system.DesignSpec{
			Kind:            fmt.Sprintf("%s+%s:%d", system.KindFootprint, system.PartMemCache, pct),
			PaperCapacityMB: partitionCapacityMB,
			Scale:           o.Scale,
		}
		res, err := o.buildTimingResized(spec, wl, plan)
		if err != nil {
			return PartitionRow{}, err
		}
		row := PartitionRow{
			Workload:           wl,
			Design:             res.Design,
			MemPct:             pct,
			Dynamic:            dynamic,
			HitRatio:           res.Counters.HitRatio(),
			MissRatio:          res.Counters.MissRatio(),
			OffChipBytesPerRef: float64(res.OffChip.DataBytes()) / float64(max(res.Refs, 1)),
			AvgCycles:          res.AvgReadLatency,
			P50:                res.ReadLatencyP50,
			P90:                res.ReadLatencyP90,
			P99:                res.ReadLatencyP99,
			IPC:                res.AggIPC(),
		}
		if p := res.Partition; p != nil {
			if res.Refs > 0 {
				row.MemHitRatio = float64(p.MemHits) / float64(res.Refs)
			}
			row.Resizes = p.Resizes
			row.FlushedPages = p.FlushedClean + p.FlushedDirty + p.PurgedPages
			row.MovedPages = p.MovedPages
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Partition renders the memory/cache/memcache partition study.
func Partition(o Options, w io.Writer) error {
	rows, err := PartitionRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Partition: stacked memory/cache split at %dMB (dyn = resize schedule 25%%<->75%%)\n", partitionCapacityMB)
	var t stats.Table
	t.Header("workload", "mem%", "memhit", "hit", "off-B/ref", "p50", "p90", "p99", "IPC", "resizes", "flushed", "moved")
	for _, r := range rows {
		pct := fmt.Sprintf("%d", r.MemPct)
		if r.Dynamic {
			pct = "dyn"
		}
		t.Row(r.Workload, pct,
			fmt.Sprintf("%.1f%%", 100*r.MemHitRatio),
			fmt.Sprintf("%.1f%%", 100*r.HitRatio),
			fmt.Sprintf("%.1f", r.OffChipBytesPerRef),
			fmt.Sprintf("%.0f", r.P50),
			fmt.Sprintf("%.0f", r.P90),
			fmt.Sprintf("%.0f", r.P99),
			fmt.Sprintf("%.3f", r.IPC),
			fmt.Sprintf("%d", r.Resizes),
			fmt.Sprintf("%d", r.FlushedPages),
			fmt.Sprintf("%d", r.MovedPages))
	}
	_, err = io.WriteString(w, t.String())
	return err
}
