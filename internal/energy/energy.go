// Package energy converts DRAM operation counts into dynamic energy,
// following the paper's breakdown (Figures 10 and 11) into
// activate/precharge energy (row manipulation) and read/write burst
// energy (data movement).
//
// The constants are calibration parameters derived from DDR3 device
// datasheets and die-stacking literature, chosen so the *proportions*
// match the phenomena the paper reports: off-chip I/O makes bursts
// expensive (page-based designs burn burst energy), while close-page
// designs burn activate/precharge energy (block-based). Absolute
// Joules are not the reproduction target; ratios are.
package energy

import "fpcache/internal/dram"

// Costs holds per-operation dynamic energy in picojoules.
type Costs struct {
	// ActPrePJ is the energy of one activate+precharge pair.
	ActPrePJ float64
	// BurstPJ is the energy to read or write one 64B burst,
	// including I/O.
	BurstPJ float64
}

// OffChip returns DDR3-1600 off-chip costs: long board traces make
// both row activation and I/O expensive (~20nJ per activation, ~10nJ
// per 64B burst; cf. Micron DDR3 power calculators).
func OffChip() Costs { return Costs{ActPrePJ: 20000, BurstPJ: 10000} }

// Stacked returns die-stacked DRAM costs: the DRAM core is similar
// but TSV I/O is roughly an order of magnitude cheaper per bit.
func Stacked() Costs { return Costs{ActPrePJ: 8000, BurstPJ: 1500} }

// Breakdown is dynamic energy split the way Figures 10/11 plot it.
type Breakdown struct {
	ActPrePJ float64
	BurstPJ  float64
}

// TotalPJ returns the summed dynamic energy.
func (b Breakdown) TotalPJ() float64 { return b.ActPrePJ + b.BurstPJ }

// PerInstruction normalizes the breakdown by an instruction count,
// producing the paper's energy-per-instruction metric.
func (b Breakdown) PerInstruction(instructions uint64) Breakdown {
	if instructions == 0 {
		return Breakdown{}
	}
	n := float64(instructions)
	return Breakdown{ActPrePJ: b.ActPrePJ / n, BurstPJ: b.BurstPJ / n}
}

// Of computes the dynamic energy of a set of DRAM operation counts.
func (c Costs) Of(s dram.Stats) Breakdown {
	return Breakdown{
		ActPrePJ: float64(s.Activates) * c.ActPrePJ,
		BurstPJ:  float64(s.ReadBursts+s.WriteBursts) * c.BurstPJ,
	}
}
