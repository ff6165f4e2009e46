package energy

import (
	"testing"

	"fpcache/internal/dram"
)

func TestCostsOf(t *testing.T) {
	c := Costs{ActPrePJ: 100, BurstPJ: 10}
	b := c.Of(dram.Stats{Activates: 3, ReadBursts: 4, WriteBursts: 6})
	if b.ActPrePJ != 300 {
		t.Fatalf("act-pre = %g", b.ActPrePJ)
	}
	if b.BurstPJ != 100 {
		t.Fatalf("burst = %g", b.BurstPJ)
	}
	if b.TotalPJ() != 400 {
		t.Fatalf("total = %g", b.TotalPJ())
	}
}

func TestPerInstruction(t *testing.T) {
	b := Breakdown{ActPrePJ: 1000, BurstPJ: 500}
	p := b.PerInstruction(100)
	if p.ActPrePJ != 10 || p.BurstPJ != 5 {
		t.Fatalf("per-instruction = %+v", p)
	}
	if z := b.PerInstruction(0); z.TotalPJ() != 0 {
		t.Fatal("zero instructions should zero the breakdown")
	}
}

func TestCalibrationProportions(t *testing.T) {
	// The reproduction's energy story needs two proportions to hold
	// (DESIGN.md, Figures 10/11):
	// 1. Stacked I/O is much cheaper per burst than off-chip I/O.
	if Stacked().BurstPJ*4 > OffChip().BurstPJ {
		t.Fatalf("stacked bursts not meaningfully cheaper: %g vs %g",
			Stacked().BurstPJ, OffChip().BurstPJ)
	}
	// 2. A close-page single-block off-chip access is dominated by
	// activate energy (the block-based design's failure mode), while
	// a 32-block open-page page fill is dominated by burst energy
	// (the page-based design's failure mode).
	off := OffChip()
	singleBlock := off.Of(dram.Stats{Activates: 1, ReadBursts: 1})
	if singleBlock.ActPrePJ <= singleBlock.BurstPJ {
		t.Fatal("single-block access not activate-dominated")
	}
	pageFill := off.Of(dram.Stats{Activates: 1, ReadBursts: 32})
	if pageFill.BurstPJ <= pageFill.ActPrePJ {
		t.Fatal("page fill not burst-dominated")
	}
}
