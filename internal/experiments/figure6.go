package experiments

import (
	"fmt"
	"io"

	"fpcache/internal/stats"
	"fpcache/internal/synth"
	"fpcache/internal/system"
)

// PerfRow is one (workload, capacity) performance comparison:
// improvement over the no-cache baseline for each design.
type PerfRow struct {
	Workload   string
	CapacityMB int
	// Improvements keyed in Figure 6's order.
	Block, Page, Footprint, Ideal float64
}

// perfRows runs the timing comparison for the given workloads. One
// sweep runs each workload's points together: the capacity-independent
// anchors (baseline and ideal), then its (capacity, design) grid.
//
// A point degraded under Tolerate has IPC 0, and a cell whose point or
// baseline degraded is zero-valued (DESIGN.md §10). perfRows also
// returns, in row order, which of each row's cells (in Figure 6's
// order: block, page, footprint, ideal) are measured, not degraded.
func perfRows(o Options, workloads []string) ([]PerfRow, [][4]bool, error) {
	kinds := []string{system.KindBlock, system.KindPage, system.KindFootprint}
	nPer := 2 + len(o.Capacities)*len(kinds) // baseline, ideal, grid
	ipcs, err := pmap(o, len(workloads)*nPer, byWorkload(workloads, nPer), func(i int) (float64, error) {
		wl, j := workloads[i/nPer], i%nPer
		var spec system.DesignSpec
		switch j {
		case 0:
			spec.Kind = system.KindBaseline
		case 1:
			spec.Kind = system.KindIdeal // capacity-independent; once per workload
		default:
			spec = system.DesignSpec{
				Kind: kinds[(j-2)%len(kinds)], PaperCapacityMB: o.Capacities[(j-2)/len(kinds)], Scale: o.Scale,
			}
		}
		res, err := o.buildTiming(spec, wl)
		if err != nil {
			return 0, err
		}
		return res.AggIPC(), nil
	})
	if err != nil {
		return nil, nil, err
	}

	var rows []PerfRow
	var measured [][4]bool
	for wi, wl := range workloads {
		base, ideal := ipcs[wi*nPer], ipcs[wi*nPer+1]
		for ci, mb := range o.Capacities {
			off := wi*nPer + 2 + ci*len(kinds)
			var cell [4]float64
			var ok [4]bool
			for k, ipc := range [4]float64{ipcs[off], ipcs[off+1], ipcs[off+2], ideal} {
				if ok[k] = ipc != 0 && base != 0; ok[k] {
					cell[k] = ipc/base - 1
				}
			}
			rows = append(rows, perfRow(wl, mb, cell))
			measured = append(measured, ok)
		}
	}
	return rows, measured, nil
}

// perfRow builds a row from its cells in Figure 6's order.
func perfRow(wl string, mb int, cell [4]float64) PerfRow {
	return PerfRow{Workload: wl, CapacityMB: mb, Block: cell[0], Page: cell[1], Footprint: cell[2], Ideal: cell[3]}
}

// Figure6Rows measures performance improvement over baseline for
// every workload except Data Serving (which Figure 7 plots
// separately due to its scale, §6.3), plus a geomean row per
// capacity.
func Figure6Rows(o Options) ([]PerfRow, error) {
	o = o.withDefaults()
	var workloads []string
	for _, wl := range o.Workloads {
		if wl != synth.DataServing {
			workloads = append(workloads, wl)
		}
	}
	rows, measured, err := perfRows(o, workloads)
	if err != nil {
		return nil, err
	}
	// Geomean across workloads per capacity (of speedups, reported as
	// improvement). Each column averages only its measured cells; a
	// column with none is zero-valued, like a degraded cell.
	n := len(rows)
	for _, mb := range o.Capacities {
		var speedups [4][]float64
		found := false
		for i, r := range rows[:n] {
			if r.CapacityMB != mb {
				continue
			}
			found = true
			for k, v := range [4]float64{r.Block, r.Page, r.Footprint, r.Ideal} {
				if measured[i][k] {
					speedups[k] = append(speedups[k], 1+v)
				}
			}
		}
		if !found {
			continue
		}
		var cell [4]float64
		for k, col := range speedups {
			if len(col) > 0 {
				cell[k] = stats.GeoMean(col) - 1
			}
		}
		rows = append(rows, perfRow("geomean", mb, cell))
	}
	return rows, nil
}

func renderPerf(title string, rows []PerfRow, w io.Writer) error {
	fmt.Fprintln(w, title)
	var t stats.Table
	t.Header("workload", "capacity", "block", "page", "footprint", "ideal")
	for _, r := range rows {
		t.Row(r.Workload, fmt.Sprintf("%dMB", r.CapacityMB),
			stats.Pct(r.Block), stats.Pct(r.Page), stats.Pct(r.Footprint), stats.Pct(r.Ideal))
	}
	_, err := io.WriteString(w, t.String())
	return err
}

// Figure6 renders the performance comparison.
func Figure6(o Options, w io.Writer) error {
	rows, err := Figure6Rows(o)
	if err != nil {
		return err
	}
	return renderPerf("Figure 6: performance improvement over baseline (all workloads except Data Serving)", rows, w)
}

// Figure7Rows is the Data Serving performance comparison (§6.3).
func Figure7Rows(o Options) ([]PerfRow, error) {
	o = o.withDefaults()
	rows, _, err := perfRows(o, []string{synth.DataServing})
	return rows, err
}

// Figure7 renders the Data Serving comparison.
func Figure7(o Options, w io.Writer) error {
	rows, err := Figure7Rows(o)
	if err != nil {
		return err
	}
	return renderPerf("Figure 7: performance improvement over baseline — Data Serving", rows, w)
}
