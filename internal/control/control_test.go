package control

import (
	"math"
	"testing"
)

// TestConfigDefaults pins the normalization contract: zero fields take
// documented defaults, negatives disable where documented, NaNs are
// scrubbed, and the bounds end up ordered.
func TestConfigDefaults(t *testing.T) {
	c := NewController(Config{}).Config()
	if c.EpochRefs != 10_000 || c.Window != 2 || c.Deadband != 0.005 ||
		c.CooldownEpochs != 2 || c.Step != 0.25 || c.MinFraction != 0 ||
		c.MaxFraction != 0.75 || c.BandwidthWeight != 0.1 || c.HoldEpochs != 8 {
		t.Fatalf("zero-config defaults wrong: %+v", c)
	}
	c = NewController(Config{CooldownEpochs: -1, HoldEpochs: -1, BandwidthWeight: -1}).Config()
	if c.CooldownEpochs != 0 || c.HoldEpochs != 0 || c.BandwidthWeight != 0 {
		t.Fatalf("negative knobs did not disable: %+v", c)
	}
	nan := math.NaN()
	c = NewController(Config{Deadband: nan, Step: nan, MinFraction: nan,
		MaxFraction: nan, InitialFraction: nan, BandwidthWeight: nan}).Config()
	if math.IsNaN(c.Deadband) || math.IsNaN(c.Step) || math.IsNaN(c.MinFraction) ||
		math.IsNaN(c.MaxFraction) || math.IsNaN(c.InitialFraction) || math.IsNaN(c.BandwidthWeight) {
		t.Fatalf("NaNs survived normalization: %+v", c)
	}
	c = NewController(Config{MinFraction: 0.5, MaxFraction: 0.25, InitialFraction: 0.9}).Config()
	if c.MaxFraction < c.MinFraction || c.InitialFraction < c.MinFraction || c.InitialFraction > c.MaxFraction {
		t.Fatalf("bounds not forced into order: %+v", c)
	}
	if NewController(Config{Window: 1 << 20}).Config().Window != maxWindow {
		t.Fatal("window not capped")
	}
	if l := (Config{}).Label(); l != NewController(Config{}).Config().Label() {
		t.Fatalf("label is not normalization-invariant: %q", l)
	}
}

// gradientFeed drives a controller with synthetic telemetry whose hit
// ratio is a pure function of the fraction the controller currently
// wants — a stationary landscape the hill climb must ascend. The
// cumulative sample is threaded through the caller so successive
// feeds continue one telemetry stream.
func gradientFeed(c *Controller, s *Sample, epochs int, hitAt func(frac float64) float64) {
	for i := 0; i < epochs; i++ {
		const acc = 10_000
		h := hitAt(c.Fraction())
		s.Refs += uint64(c.Config().EpochRefs)
		s.Accesses += acc
		s.Hits += uint64(h * acc)
		s.OffChipBytes += uint64((1 - h) * acc * 64)
		c.Observe(*s)
	}
}

// TestControllerClimbsGradient: on a monotone landscape the controller
// must walk to the best bound and park there.
func TestControllerClimbsGradient(t *testing.T) {
	up := func(f float64) float64 { return 0.5 + 0.4*f }
	c := NewController(Config{CooldownEpochs: 1})
	var s Sample
	gradientFeed(c, &s, 60, up)
	if c.Fraction() != c.Config().MaxFraction {
		t.Fatalf("rising landscape: parked at %v, want max %v", c.Fraction(), c.Config().MaxFraction)
	}
	down := func(f float64) float64 { return 0.9 - 0.4*f }
	c = NewController(Config{CooldownEpochs: 1, InitialFraction: 0.75})
	s = Sample{}
	gradientFeed(c, &s, 60, down)
	if c.Fraction() != c.Config().MinFraction {
		t.Fatalf("falling landscape: parked at %v, want min %v", c.Fraction(), c.Config().MinFraction)
	}
}

// TestControllerTracksPhaseChange: when the landscape inverts with a
// swing past the shift threshold, the controller must rebaseline and
// walk to the new optimum — the oracle test's mechanism in isolation.
func TestControllerTracksPhaseChange(t *testing.T) {
	c := NewController(Config{CooldownEpochs: 1, HoldEpochs: 4})
	var s Sample
	gradientFeed(c, &s, 60, func(f float64) float64 { return 0.5 + 0.4*f })
	if c.Fraction() != c.Config().MaxFraction {
		t.Fatalf("phase 1: parked at %v, want max", c.Fraction())
	}
	gradientFeed(c, &s, 80, func(f float64) float64 { return 0.9 - 0.4*f })
	if c.Fraction() != c.Config().MinFraction {
		t.Fatalf("phase 2: parked at %v, want min", c.Fraction())
	}
}

// TestControllerFlatLandscapeBounded: on a flat landscape the opening
// probe lands inside the deadband and the controller parks; with
// forced reprobes disabled it then goes quiet forever.
func TestControllerFlatLandscapeBounded(t *testing.T) {
	c := NewController(Config{CooldownEpochs: 1, HoldEpochs: -1, InitialFraction: 0.25})
	flat := func(float64) float64 { return 0.7 }
	var s Sample
	gradientFeed(c, &s, 20, flat)
	settled, moves := c.Fraction(), c.Moves()
	if moves > 2 {
		t.Fatalf("flat landscape made %d moves in the opening cycle, want <= 2 (probe + revert)", moves)
	}
	gradientFeed(c, &s, 80, flat)
	if c.Fraction() != settled || c.Moves() != moves {
		t.Fatalf("flat landscape with reprobes disabled kept moving: frac %v->%v, moves %d->%d",
			settled, c.Fraction(), moves, c.Moves())
	}
}

// TestObserveFirstSampleOnlyPrimes: the first sample is the cumulative
// baseline and never decides.
func TestObserveFirstSampleOnlyPrimes(t *testing.T) {
	c := NewController(Config{})
	if _, fire := c.Observe(Sample{Refs: 10_000, Accesses: 9_000, Hits: 4_000}); fire {
		t.Fatal("first sample fired a decision")
	}
	if c.Epochs() != 0 {
		t.Fatalf("first sample scored an epoch: %d", c.Epochs())
	}
}

// TestObserveAllocates pins the hot-path contract: Observe allocates
// nothing once the controller is built.
func TestObserveAllocates(t *testing.T) {
	c := NewController(Config{CooldownEpochs: 1})
	var s Sample
	n := testing.AllocsPerRun(200, func() {
		s.Refs += 10_000
		s.Accesses += 10_000
		s.Hits += 7_000
		s.OffChipBytes += 3_000 * 64
		c.Observe(s)
	})
	if n != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", n)
	}
}
