// Package testutil holds the deterministic trace builders and
// canonicalization helpers the test suites share. Every helper here
// is seed-driven and allocation-transparent: two calls with the same
// arguments produce byte-identical streams, which is what the parity
// suites (serial ≡ parallel, functional ≡ timing, snapshot ≡
// uninterrupted) compare against. Nothing in this package imports the
// packages under test, so in-package (white-box) tests can use it
// without import cycles.
package testutil

import (
	"encoding/json"
	"math/rand"
	"testing"

	"fpcache/internal/memtrace"
	"fpcache/internal/synth"
)

// RandomTrace builds a deterministic pseudo-random trace: n records
// over a 64MB address range, spread across the given core count.
func RandomTrace(n int, seed int64, cores int) *memtrace.Slice {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]memtrace.Record, n)
	for i := range recs {
		recs[i] = memtrace.Record{
			PC:    memtrace.PC(0x400000 + rng.Intn(128)*4),
			Addr:  memtrace.Addr(rng.Intn(1<<20) * 64),
			Core:  uint8(rng.Intn(cores)),
			Write: rng.Intn(3) == 0,
			Gap:   uint32(1 + rng.Intn(100)),
		}
	}
	return memtrace.NewSlice(recs)
}

// SynthTrace builds a fresh calibrated-workload generator for a
// (workload, seed, scale) identity. Every run should get its own so
// no generator state leaks between compared runs.
func SynthTrace(tb testing.TB, workload string, seed int64, scale float64) *synth.Generator {
	tb.Helper()
	prof, err := synth.ByName(workload)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := synth.NewGenerator(prof, seed, scale)
	if err != nil {
		tb.Fatal(err)
	}
	return gen
}

// SynthTraceAt is SynthTrace fast-forwarded past n records — the
// source a restored-from-snapshot run measures from.
func SynthTraceAt(tb testing.TB, workload string, seed int64, scale float64, n int) memtrace.Source {
	tb.Helper()
	src := SynthTrace(tb, workload, seed, scale)
	if skipped := memtrace.Skip(src, n); skipped != n {
		tb.Fatalf("skipped %d of %d records", skipped, n)
	}
	return src
}

// AsJSON canonicalizes a value for byte-identity comparison.
func AsJSON(tb testing.TB, v any) string {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}
