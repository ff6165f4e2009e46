// Package control implements the online adaptive partition
// controller of ROADMAP item 1: a deterministic feedback loop that
// watches a sliding window of telemetry (hit ratio, off-chip traffic,
// memory-region hits — all already counted by the functional runner)
// and decides, at fixed epochs of measured references, how much of
// the stacked capacity should be OS-visible memory versus cache.
//
// The controller is a pure function of the telemetry it has observed:
// it keeps no clocks, draws no randomness, and ranges over no maps,
// so a run that feeds it the same reference stream makes the same
// decisions — the property the runner parity suite (functional ≡
// timing) depends on. Decisions are a hill climb over the split
// fraction with a deadband (small score changes do not move the split)
// and a cooldown (a move silences the controller for a few epochs so
// migration traffic never feeds back into the next decision), bounding
// resize churn. DESIGN.md §13 develops the model.
//
// A controller is never snapshotted: warm state is captured at the
// warmup boundary, before the first decision epoch, so a restored run
// starts from a fresh controller.
package control

import (
	"fmt"
	"math"
)

// maxWindow bounds the telemetry ring so a hostile config cannot
// drive a giant allocation.
const maxWindow = 1024

// Config parameterizes the controller. The zero value of every field
// selects a sensible default (see withDefaults); explicit negatives
// disable where noted.
type Config struct {
	// EpochRefs is the decision interval in measured references: the
	// runner offers the controller one telemetry sample every
	// EpochRefs references. Default 10000.
	EpochRefs int
	// Window is how many clean epochs (cooldown epochs are excluded)
	// the controller aggregates before scoring a split. Default 2,
	// capped at 1024.
	Window int
	// Deadband is the minimum score improvement that counts as
	// progress; score changes inside the band do not move the split.
	// Default 0.005.
	Deadband float64
	// CooldownEpochs is how many epochs after a move the controller
	// stays silent, so flush/migration traffic from the resize never
	// feeds back into the next decision. Default 2; negative means no
	// cooldown.
	CooldownEpochs int
	// Step is the fraction moved per decision. Default 0.25.
	Step float64
	// MinFraction / MaxFraction bound the split the controller will
	// ever emit. Defaults 0 and 0.75; MaxFraction stays below 1 (the
	// cache slice never vanishes).
	MinFraction, MaxFraction float64
	// InitialFraction is the split the controller assumes the design
	// starts at; it is clamped into [MinFraction, MaxFraction].
	InitialFraction float64
	// BandwidthWeight scales the off-chip-traffic penalty in the
	// score: score = hitRatio − weight·(offChipBytes per 64B access).
	// Default 0.1; negative disables the term.
	BandwidthWeight float64
	// HoldEpochs is how many clean epochs the controller stays parked
	// before forcing a fresh probe even without a score drop. A phase
	// change can leave the held split's score flat while a far-away
	// split has become much better (the score is local information);
	// periodic re-exploration is the only way out of that trap.
	// Default 8; negative disables forced reprobes.
	HoldEpochs int
}

// withDefaults normalizes a config: zero fields take defaults, NaNs
// are scrubbed, and the fraction bounds are forced into a usable
// order.
func (c Config) withDefaults() Config {
	if c.EpochRefs <= 0 {
		c.EpochRefs = 10_000
	}
	if c.Window <= 0 {
		c.Window = 2
	}
	if c.Window > maxWindow {
		c.Window = maxWindow
	}
	if c.Deadband <= 0 || math.IsNaN(c.Deadband) {
		c.Deadband = 0.005
	}
	if c.CooldownEpochs == 0 {
		c.CooldownEpochs = 2
	} else if c.CooldownEpochs < 0 {
		c.CooldownEpochs = 0
	}
	if c.Step <= 0 || math.IsNaN(c.Step) {
		c.Step = 0.25
	}
	if c.MinFraction < 0 || math.IsNaN(c.MinFraction) {
		c.MinFraction = 0
	}
	if c.MaxFraction <= 0 || math.IsNaN(c.MaxFraction) {
		c.MaxFraction = 0.75
	}
	if c.MaxFraction >= 1 {
		c.MaxFraction = 0.95
	}
	if c.MaxFraction < c.MinFraction {
		c.MaxFraction = c.MinFraction
	}
	if math.IsNaN(c.InitialFraction) {
		c.InitialFraction = c.MinFraction
	}
	if c.InitialFraction < c.MinFraction {
		c.InitialFraction = c.MinFraction
	}
	if c.InitialFraction > c.MaxFraction {
		c.InitialFraction = c.MaxFraction
	}
	if c.BandwidthWeight == 0 {
		c.BandwidthWeight = 0.1
	} else if c.BandwidthWeight < 0 || math.IsNaN(c.BandwidthWeight) {
		c.BandwidthWeight = 0
	}
	if c.HoldEpochs == 0 {
		c.HoldEpochs = 8
	} else if c.HoldEpochs < 0 {
		c.HoldEpochs = 0
	}
	return c
}

// Label renders the normalized config as a deterministic string, used
// to label experiment rows.
func (c Config) Label() string {
	c = c.withDefaults()
	return fmt.Sprintf("adaptive:e%d:w%d:db%g:cd%d:st%g:f%g-%g:i%g:bw%g:h%d",
		c.EpochRefs, c.Window, c.Deadband, c.CooldownEpochs, c.Step,
		c.MinFraction, c.MaxFraction, c.InitialFraction, c.BandwidthWeight,
		c.HoldEpochs)
}

// Sample is one cumulative telemetry reading, taken at an epoch
// boundary of the measured reference stream. All fields are running
// totals since the start of measurement (never per-epoch deltas), so
// a sample is position-independent: a controller restored from a
// snapshot carries its previous sample and differences the next one
// against it, wherever in the run that happens.
type Sample struct {
	// Refs is the absolute measured-reference position of the sample.
	Refs uint64
	// Accesses / Hits are the design's cumulative access counters.
	Accesses, Hits uint64
	// MemHits is the cumulative count of accesses served by the
	// part-of-memory region.
	MemHits uint64
	// OffChipBytes is the cumulative off-chip traffic proxy
	// (64 bytes per miss and per dirty eviction).
	OffChipBytes uint64
}

// epochStats is one epoch's telemetry delta in the sliding window.
type epochStats struct {
	Accesses, Hits uint64
	MemHits        uint64
	OffBytes       uint64
}

// Climb modes: probing is measuring the split it just moved to,
// reverting is back at the pre-probe split re-measuring, holding is
// parked on a split that beat (or tied) its neighbors.
const (
	modeProbe = iota
	modeRevert
	modeHold
)

// Controller is the adaptive partition controller. Build one with
// NewController and feed it cumulative telemetry through Observe; it
// answers with the split fraction to apply and whether that is a new
// decision. The zero Controller is not usable.
type Controller struct {
	cfg Config

	// primed reports whether the first sample (the cumulative
	// baseline) has been recorded; the first Observe never decides.
	primed bool
	// last is the previous cumulative sample; deltas against it form
	// the window epochs.
	last Sample

	// win is the telemetry ring: entries [0, winN) are valid, winPos
	// is the next write slot (winPos == winN until the ring is full).
	win    []epochStats
	winN   int
	winPos int

	// frac is the current split; prevFrac is where the last move came
	// from (reverts return exactly there, even when the forward move
	// was clamped).
	frac, prevFrac float64
	// dir is the climb direction in step units, +1 or -1.
	dir int
	// cooldown is how many epochs remain silenced after a move.
	cooldown int

	// hasPrev reports whether prevScore holds a real measurement.
	hasPrev bool
	// prevScore is the reference score the current probe competes
	// against; holdScore is the best score seen while holding.
	prevScore, holdScore float64
	mode                 int
	// tried counts climb directions that failed since the last
	// improvement; both failing parks the controller in hold.
	tried int
	// holdAge counts clean epochs spent in the current hold; reaching
	// cfg.HoldEpochs forces a reprobe.
	holdAge int

	// epochs counts clean (non-cooldown) epochs observed; moves
	// counts emitted decisions. Diagnostics only.
	epochs uint64
	moves  uint64
}

// NewController builds a controller from the (normalized) config.
func NewController(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg: cfg,
		win: make([]epochStats, cfg.Window),
		dir: 1,
	}
	c.frac = cfg.InitialFraction
	c.prevFrac = cfg.InitialFraction
	return c
}

// Config returns the normalized configuration.
func (c *Controller) Config() Config { return c.cfg }

// Fraction returns the split the controller currently wants.
func (c *Controller) Fraction() float64 { return c.frac }

// Moves returns how many resize decisions the controller has emitted.
func (c *Controller) Moves() uint64 { return c.moves }

// Epochs returns how many clean epochs the controller has scored.
func (c *Controller) Epochs() uint64 { return c.epochs }

// Observe feeds one cumulative telemetry sample and returns the split
// fraction the design should run at plus whether that is a new
// decision (the caller resizes only when fire is true). The first
// call only records the cumulative baseline; cooldown epochs are
// swallowed (their telemetry carries the migration traffic of the
// move that started the cooldown); otherwise the epoch delta enters
// the window and, once the window is full, the hill climb decides.
// Observe allocates nothing.
func (c *Controller) Observe(s Sample) (frac float64, fire bool) {
	if !c.primed {
		c.primed = true
		c.last = s
		return c.frac, false
	}
	d := epochStats{
		Accesses: s.Accesses - c.last.Accesses,
		Hits:     s.Hits - c.last.Hits,
		MemHits:  s.MemHits - c.last.MemHits,
		OffBytes: s.OffChipBytes - c.last.OffChipBytes,
	}
	c.last = s
	if c.cooldown > 0 {
		c.cooldown--
		return c.frac, false
	}
	c.epochs++
	c.push(d)
	if c.winN < len(c.win) {
		return c.frac, false
	}
	return c.decide(c.score())
}

// push appends one epoch to the window ring.
func (c *Controller) push(d epochStats) {
	c.win[c.winPos] = d
	c.winPos = (c.winPos + 1) % len(c.win)
	if c.winN < len(c.win) {
		c.winN++
	}
}

// resetWindow discards the window after a move: epochs measured at
// different splits must never mix in one score.
func (c *Controller) resetWindow() {
	c.winN, c.winPos = 0, 0
}

// score aggregates the window into one figure of merit: hit ratio
// minus the weighted off-chip traffic per access. Summing the ring is
// order-independent, so the ring phase cannot influence the value.
func (c *Controller) score() float64 {
	var acc, hits, off uint64
	for i := 0; i < c.winN; i++ {
		acc += c.win[i].Accesses
		hits += c.win[i].Hits
		off += c.win[i].OffBytes
	}
	if acc == 0 {
		return 0
	}
	return float64(hits)/float64(acc) - c.cfg.BandwidthWeight*float64(off)/(64*float64(acc))
}

// shift is the hold-mode phase-change threshold: the split has not
// moved, so a score swinging this far between windows can only be
// the workload changing phase. Wider than the deadband so bursty
// epochs do not trip it, but tight enough to catch a phase change
// whose effect at the held split is modest.
func (c *Controller) shift() float64 { return 6 * c.cfg.Deadband }

// jump is the probe/revert-mode phase-change threshold. Here a move
// DID intervene, so ordinary step effects must stay below it and
// only a swing far beyond what one Step of split can cause — a
// window straddling a phase change, compared against a stale
// reference — reads as the phase changing.
func (c *Controller) jump() float64 { return 24 * c.cfg.Deadband }

// rebaseline discards every score reference after a detected phase
// change: comparisons against pre-change measurements (or against
// windows straddling the change) are meaningless, so the controller
// stays at its current split, measures a fresh window, and restarts
// the climb from that clean baseline.
func (c *Controller) rebaseline() {
	c.hasPrev = false
	c.mode = modeHold
	c.tried = 0
	c.holdAge = 0
	c.resetWindow()
}

// moveTo clamps the target split into bounds and, if it differs from
// the current split, commits the move: records where it came from,
// arms the cooldown, and resets the window. Reports whether a move
// happened.
func (c *Controller) moveTo(t float64) bool {
	if t < c.cfg.MinFraction {
		t = c.cfg.MinFraction
	}
	if t > c.cfg.MaxFraction {
		t = c.cfg.MaxFraction
	}
	if t == c.frac {
		return false
	}
	c.prevFrac = c.frac
	c.frac = t
	c.cooldown = c.cfg.CooldownEpochs
	c.resetWindow()
	c.moves++
	return true
}

// move steps the split one Step in the given direction.
func (c *Controller) move(dir int) bool {
	return c.moveTo(c.frac + float64(dir)*c.cfg.Step)
}

// enterHold parks the controller on the current split.
func (c *Controller) enterHold(score float64) {
	c.mode = modeHold
	c.holdScore = score
	c.tried = 0
	c.holdAge = 0
}

// restartClimb leaves hold and probes in the remembered direction,
// flipping it when that side is against a bound. Reports whether a
// probe actually moved; when both directions are pinned (degenerate
// bounds) the controller stays parked.
func (c *Controller) restartClimb(score float64) (float64, bool) {
	c.prevScore = score
	c.tried = 0
	c.holdAge = 0
	for range [2]int{} {
		if c.move(c.dir) {
			c.mode = modeProbe
			return c.frac, true
		}
		c.dir = -c.dir
	}
	c.holdScore = score
	return c.frac, false
}

// decide runs the three-mode hill climb on a fresh window score.
//
//   - probe: the split just moved; a score beating the reference by
//     the deadband keeps climbing, a score losing by the deadband
//     reverts to exactly the pre-probe split, anything inside the
//     band parks.
//   - revert: back at the pre-probe split; try the opposite
//     direction unless both have now failed, which parks.
//   - hold: track the best score seen; growing HoldEpochs old forces
//     a reprobe — a phase change the held split's own score cannot
//     see (the score is local; a distant split may have become far
//     better) is only caught by periodically re-exploring, and
//     successive forced reprobes alternate direction because the
//     remembered direction is exactly what failed before parking.
//
// Above all of that sits phase-change detection: every mode first
// checks its fresh score against the reference it would otherwise
// compare to (prevScore, or the held best), and a swing past the
// shift threshold — far beyond what one Step of split can cause —
// means the workload moved phases sometime in the last window. Any
// verdict drawn across that boundary would be garbage (a probe
// straddling a phase change looks catastrophic or miraculous
// regardless of the split's merit), so the controller rebaselines:
// it discards its references, measures a clean window at the current
// split, and restarts the climb from there.
//
// Climbing into a bound parks (there is nowhere further to go); the
// very first scored window starts the climb unconditionally, because
// with nothing to compare against only a probe produces information.
func (c *Controller) decide(score float64) (float64, bool) {
	if !c.hasPrev {
		c.hasPrev = true
		c.mode = modeHold
		return c.restartClimb(score)
	}
	switch c.mode {
	case modeProbe:
		if math.Abs(score-c.prevScore) >= c.jump() {
			c.rebaseline()
			return c.frac, false
		}
		switch {
		case score >= c.prevScore+c.cfg.Deadband:
			c.prevScore = score
			c.tried = 0
			if c.move(c.dir) {
				return c.frac, true
			}
			c.enterHold(score)
		case score <= c.prevScore-c.cfg.Deadband:
			c.tried++
			c.mode = modeRevert
			if c.moveTo(c.prevFrac) {
				return c.frac, true
			}
			c.enterHold(score)
		default:
			c.enterHold(score)
		}
	case modeRevert:
		// prevScore was measured at this same split before the failed
		// probe; a large disagreement with the re-measure means the
		// phase changed mid-cycle, not that the probe was bad.
		if math.Abs(score-c.prevScore) >= c.shift() {
			// No move separates these two measurements (the revert
			// undid the probe), so the tight hold threshold applies.
			c.rebaseline()
			return c.frac, false
		}
		if c.tried >= 2 {
			c.enterHold(score)
			break
		}
		c.dir = -c.dir
		c.prevScore = score
		if c.move(c.dir) {
			c.mode = modeProbe
			return c.frac, true
		}
		c.enterHold(score)
	case modeHold:
		c.holdAge++
		if math.Abs(score-c.holdScore) >= c.shift() {
			c.rebaseline()
			return c.frac, false
		}
		if score > c.holdScore {
			c.holdScore = score
		}
		if c.cfg.HoldEpochs > 0 && c.holdAge >= c.cfg.HoldEpochs {
			// An aged-out hold has no gradient information — the last
			// probe in the remembered direction is exactly what failed
			// before parking, so alternate: successive forced reprobes
			// walk both sides of the hold.
			c.dir = -c.dir
			return c.restartClimb(score)
		}
	}
	return c.frac, false
}
