package control

// Snapshot codec for the controller's decision state. The state
// embeds into a warm-state stream (Save/Load against a shared
// snap.Writer/Reader) or stands alone in its own versioned envelope
// (Snapshot/Restore); both paths carry the same tagged section. The
// saved stream echoes the full configuration and Load refuses a
// stream whose config differs from the controller it restores into —
// a snapshot is only meaningful against the controller shape that
// wrote it. Every decode-side validation failure wraps
// fault.ErrCorruptSnapshot so the quarantine and failure-report
// layers classify it without matching strings.

import (
	"io"
	"math"

	"fpcache/internal/snap"
)

// stateKind names the standalone snapshot envelope.
const stateKind = "fpcache-control"

// stateVersion versions the controller state layout below. Any
// change to the saved field set — the Config echo, the cumulative
// Sample baseline, the window ring, or the climb registers — must
// bump it; the snapmeta analyzer pins the layout to the fingerprint
// in the directive so a drift without a bump fails fplint.
//
//fplint:snapfields 0x73a68df7
const stateVersion = 1

// Save appends the controller's full decision state to a snapshot
// stream: config echo, baseline sample, window ring, and climb
// registers, in fixed order. Floats travel as IEEE-754 bits, so a
// restore is bit-exact.
func (c *Controller) Save(w *snap.Writer) {
	w.Tag("control")
	w.U64(stateVersion)
	w.I64(int64(c.cfg.EpochRefs))
	w.I64(int64(c.cfg.Window))
	w.U64(math.Float64bits(c.cfg.Deadband))
	w.I64(int64(c.cfg.CooldownEpochs))
	w.U64(math.Float64bits(c.cfg.Step))
	w.U64(math.Float64bits(c.cfg.MinFraction))
	w.U64(math.Float64bits(c.cfg.MaxFraction))
	w.U64(math.Float64bits(c.cfg.InitialFraction))
	w.U64(math.Float64bits(c.cfg.BandwidthWeight))
	w.I64(int64(c.cfg.HoldEpochs))
	w.Bool(c.primed)
	w.U64(c.last.Refs)
	w.U64(c.last.Accesses)
	w.U64(c.last.Hits)
	w.U64(c.last.MemHits)
	w.U64(c.last.OffChipBytes)
	w.I64(int64(c.winN))
	for i := 0; i < c.winN; i++ {
		w.U64(c.win[i].Accesses)
		w.U64(c.win[i].Hits)
		w.U64(c.win[i].MemHits)
		w.U64(c.win[i].OffBytes)
	}
	w.I64(int64(c.winPos))
	w.U64(math.Float64bits(c.frac))
	w.U64(math.Float64bits(c.prevFrac))
	w.I64(int64(c.dir))
	w.I64(int64(c.cooldown))
	w.Bool(c.hasPrev)
	w.U64(math.Float64bits(c.prevScore))
	w.U64(math.Float64bits(c.holdScore))
	w.I64(int64(c.mode))
	w.I64(int64(c.tried))
	w.I64(int64(c.holdAge))
	w.U64(c.epochs)
	w.U64(c.moves)
}

// fracInRange reports whether a decoded split fraction is a real
// number inside the controller's bounds.
func (c *Controller) fracInRange(f float64) bool {
	return !math.IsNaN(f) && f >= c.cfg.MinFraction && f <= c.cfg.MaxFraction
}

// finite reports whether a decoded score is an ordinary number.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Load restores state saved by Save into a controller built from the
// same configuration. The controller is only mutated after every
// field decodes and validates; any failure wraps
// fault.ErrCorruptSnapshot and leaves the controller untouched.
func (c *Controller) Load(r *snap.Reader) error {
	r.Expect("control")
	if v := r.U64(); r.Err() == nil && v != stateVersion {
		return corruptf("controller state version %d, want %d", v, stateVersion)
	}
	var got Config
	got.EpochRefs = int(r.I64())
	got.Window = int(r.I64())
	got.Deadband = math.Float64frombits(r.U64())
	got.CooldownEpochs = int(r.I64())
	got.Step = math.Float64frombits(r.U64())
	got.MinFraction = math.Float64frombits(r.U64())
	got.MaxFraction = math.Float64frombits(r.U64())
	got.InitialFraction = math.Float64frombits(r.U64())
	got.BandwidthWeight = math.Float64frombits(r.U64())
	got.HoldEpochs = int(r.I64())
	if r.Err() != nil {
		return r.Err()
	}
	if got != c.cfg {
		return corruptf("controller config %+v, want %+v", got, c.cfg)
	}
	primed := r.Bool()
	var last Sample
	last.Refs = r.U64()
	last.Accesses = r.U64()
	last.Hits = r.U64()
	last.MemHits = r.U64()
	last.OffChipBytes = r.U64()
	winN := int(r.I64())
	if r.Err() != nil {
		return r.Err()
	}
	if winN < 0 || winN > len(c.win) {
		return corruptf("window fill %d out of range [0,%d]", winN, len(c.win))
	}
	win := make([]epochStats, winN)
	for i := range win {
		win[i].Accesses = r.U64()
		win[i].Hits = r.U64()
		win[i].MemHits = r.U64()
		win[i].OffBytes = r.U64()
	}
	winPos := int(r.I64())
	frac := math.Float64frombits(r.U64())
	prevFrac := math.Float64frombits(r.U64())
	dir := int(r.I64())
	cooldown := int(r.I64())
	hasPrev := r.Bool()
	prevScore := math.Float64frombits(r.U64())
	holdScore := math.Float64frombits(r.U64())
	mode := int(r.I64())
	tried := int(r.I64())
	holdAge := int(r.I64())
	epochs := r.U64()
	moves := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	switch {
	case winN == len(c.win) && (winPos < 0 || winPos >= len(c.win)):
		return corruptf("full-ring write slot %d out of range [0,%d)", winPos, len(c.win))
	case winN < len(c.win) && winPos != winN:
		return corruptf("partial-ring write slot %d, want %d", winPos, winN)
	case !c.fracInRange(frac):
		return corruptf("split fraction %v outside [%v,%v]", frac, c.cfg.MinFraction, c.cfg.MaxFraction)
	case !c.fracInRange(prevFrac):
		return corruptf("pre-probe fraction %v outside [%v,%v]", prevFrac, c.cfg.MinFraction, c.cfg.MaxFraction)
	case dir != 1 && dir != -1:
		return corruptf("climb direction %d, want ±1", dir)
	case cooldown < 0 || cooldown > c.cfg.CooldownEpochs:
		return corruptf("cooldown %d out of range [0,%d]", cooldown, c.cfg.CooldownEpochs)
	case !finite(prevScore) || !finite(holdScore):
		return corruptf("non-finite score state (prev %v, hold %v)", prevScore, holdScore)
	case mode != modeProbe && mode != modeRevert && mode != modeHold:
		return corruptf("climb mode %d unknown", mode)
	case tried < 0 || tried > 2:
		return corruptf("failed-direction count %d out of range [0,2]", tried)
	case holdAge < 0 || (c.cfg.HoldEpochs > 0 && holdAge > c.cfg.HoldEpochs):
		return corruptf("hold age %d out of range [0,%d]", holdAge, c.cfg.HoldEpochs)
	case moves > epochs:
		return corruptf("%d moves exceed %d scored epochs", moves, epochs)
	}
	c.primed = primed
	c.last = last
	copy(c.win, win)
	for i := winN; i < len(c.win); i++ {
		c.win[i] = epochStats{}
	}
	c.winN, c.winPos = winN, winPos
	c.frac, c.prevFrac = frac, prevFrac
	c.dir = dir
	c.cooldown = cooldown
	c.hasPrev = hasPrev
	c.prevScore, c.holdScore = prevScore, holdScore
	c.mode = mode
	c.tried = tried
	c.holdAge = holdAge
	c.epochs = epochs
	c.moves = moves
	return nil
}

// Snapshot writes the controller state as a standalone versioned
// envelope.
func (c *Controller) Snapshot(dst io.Writer) error {
	return snap.WriteEnvelope(dst, stateKind, stateVersion, func(w *snap.Writer) {
		c.Save(w)
	})
}

// Restore reads a standalone envelope written by Snapshot.
func (c *Controller) Restore(src io.Reader) error {
	return snap.ReadEnvelope(src, stateKind, stateVersion, func(r *snap.Reader) error {
		return c.Load(r)
	})
}
