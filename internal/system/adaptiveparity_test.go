package system

import (
	"bytes"
	"encoding/json"
	"testing"

	"fpcache/internal/control"
	"fpcache/internal/memtrace"
	"fpcache/internal/synth"
	"fpcache/internal/testutil"
)

// The adaptive-parity suite extends every run-mode equivalence the
// repo pins for static resize schedules to the online controller: the
// controller is a pure function of the telemetry sequence, and
// telemetry is sampled at the same measured-reference boundaries in
// every runner, so functional, timing, and snapshot-restored runs must
// all make the same decisions at the same references.

// adaptiveTestConfig is a controller tuned to act within a few
// thousand references: tiny epochs, short hold, one-epoch cooldown.
func adaptiveTestConfig() control.Config {
	return control.Config{
		EpochRefs:      1_000,
		CooldownEpochs: 1,
		HoldEpochs:     4,
	}
}

// adaptiveTestSpec is a partitioned design whose split the controller
// drives from the plain-cache corner.
func adaptiveTestSpec(scale float64) DesignSpec {
	return DesignSpec{Kind: "subblock+memlow:0", PaperCapacityMB: 64, Scale: scale}
}

// TestAdaptiveTimingMatchesFunctional pins functional/timing parity
// under the adaptive controller: the event-driven run drives the same
// controller at the same epoch boundaries, so functional counters,
// traffic, and the applied resize sequence must be byte-identical.
func TestAdaptiveTimingMatchesFunctional(t *testing.T) {
	const (
		scale  = 1.0 / 64
		warmup = 4_000
		refs   = 12_000
	)
	spec := adaptiveTestSpec(scale)

	d1, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	fres := mustFunctional(RunFunctionalResized(d1, snapTrace(t, scale), warmup, refs,
		NewAdaptivePolicy(adaptiveTestConfig())))
	if fres.Partition == nil || fres.Partition.Resizes == 0 {
		t.Fatalf("controller applied no resizes in the functional run: %+v", fres.Partition)
	}

	d2, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	tpol := NewAdaptivePolicy(adaptiveTestConfig())
	tres := mustTiming(RunTiming(d2, snapTrace(t, scale), TimingConfig{
		Cores: 8, MLP: 2, WarmupRefs: warmup, MaxRefs: refs, Resize: tpol,
	}))

	fj, _ := json.Marshal(fres.Counters)
	tj, _ := json.Marshal(tres.Counters)
	if string(fj) != string(tj) {
		t.Fatalf("counters diverge under adaptive control\nfunctional: %s\ntiming:     %s", fj, tj)
	}
	if fres.OffChip.ReadBursts != tres.OffChip.ReadBursts ||
		fres.OffChip.WriteBursts != tres.OffChip.WriteBursts {
		t.Fatalf("off-chip traffic diverges: functional %d/%d, timing %d/%d",
			fres.OffChip.ReadBursts, fres.OffChip.WriteBursts,
			tres.OffChip.ReadBursts, tres.OffChip.WriteBursts)
	}
	if pf, pt := fres.Partition, tres.Partition; pt == nil ||
		pf.Resizes != pt.Resizes || pf.MemHits != pt.MemHits {
		t.Fatalf("partition state diverges\nfunctional: %+v\ntiming:     %+v", pf, pt)
	}
}

// TestAdaptiveSnapshotWarmupParity pins checkpoint transparency for
// the controller on the path the warm cache takes: warming, taking a
// snapshot at the warmup boundary, restoring it into a fresh design
// with a fresh controller, and measuring must reproduce the
// uninterrupted adaptive run byte for byte. The snapshot carries no
// controller state: every controller is unprimed at the warmup
// boundary, so a fresh one is the state it would restore.
func TestAdaptiveSnapshotWarmupParity(t *testing.T) {
	const (
		scale  = 1.0 / 64
		warmup = 4_000
		refs   = 12_000
	)
	spec := adaptiveTestSpec(scale)

	d, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	full := NewSimState(d)
	full.SetPolicy(NewAdaptivePolicy(adaptiveTestConfig()))
	if err := full.Warm(snapTrace(t, scale), warmup); err != nil {
		t.Fatal(err)
	}
	want := mustFunctional(full.Measure(snapTraceAt(t, scale, warmup), refs))
	if want.Partition == nil || want.Partition.Resizes == 0 {
		t.Fatalf("controller applied no resizes in the reference run: %+v", want.Partition)
	}

	d1, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	warmed := NewSimState(d1)
	if err := warmed.Warm(snapTrace(t, scale), warmup); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warmed.Snapshot(&buf, snapMeta(warmup)); err != nil {
		t.Fatal(err)
	}

	d2, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSimState(d2)
	if err := restored.Restore(bytes.NewReader(buf.Bytes()), snapMeta(warmup)); err != nil {
		t.Fatal(err)
	}
	restored.SetPolicy(NewAdaptivePolicy(adaptiveTestConfig()))
	got := mustFunctional(restored.Measure(snapTraceAt(t, scale, warmup), refs))

	if w, g := testutil.AsJSON(t, want), testutil.AsJSON(t, got); w != g {
		t.Fatalf("restored adaptive run diverges\nuninterrupted: %s\nrestored:      %s", w, g)
	}
}

// snapTraceAt is snapTrace fast-forwarded past n records.
func snapTraceAt(t *testing.T, scale float64, n int) memtrace.Source {
	t.Helper()
	return testutil.SynthTraceAt(t, synth.WebSearch, 11, scale, n)
}
