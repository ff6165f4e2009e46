package system

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"fpcache/internal/dcache"
	"fpcache/internal/synth"
	"fpcache/internal/testutil"
)

// The golden parity suite pins every design kind to data recorded in
// testdata/parity. The rows were generated while the pre-engine
// monolithic designs still lived in the tree and agreed with the
// engine byte for byte; the monoliths are gone, the rows remain.
// Regenerate them with
//
//	go test ./internal/system -run GoldenParity -update
//
// only for a change that is meant to move a row.

// parityTrace builds a fresh generator at the parity suite's fixed
// seed; each design run gets its own so state never leaks between
// runs.
func parityTrace(t *testing.T, workload string, scale float64) *synth.Generator {
	t.Helper()
	return testutil.SynthTrace(t, workload, 7, scale)
}

var update = flag.Bool("update", false, "rewrite testdata/parity from the current engine")

// parityScale is the capacity scale of the recorded grid.
const parityScale = 1.0 / 64

// parityRow is one recorded point of the golden parity grid: the full
// FunctionalResult and the SRAM budget of one (workload, kind,
// capacity) design.
type parityRow struct {
	Workload     string           `json:"workload"`
	Kind         string           `json:"kind"`
	MB           int              `json:"mb"`
	MetadataBits int64            `json:"metadata_bits"`
	Result       FunctionalResult `json:"result"`
}

// checkGolden compares got with testdata/parity/name byte for byte, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "parity", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s line %d diverges\nrecorded: %s\nengine:   %s", path, i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("%s: %d lines recorded, engine produced %d", path, len(wantLines), len(gotLines))
}

// TestGoldenParityAllDesigns pins every design BuildDesign returns to
// the FunctionalResults and SRAM budgets recorded in
// testdata/parity/designs.jsonl, one JSON line per grid point.
func TestGoldenParityAllDesigns(t *testing.T) {
	const warmup, refs = 40_000, 40_000
	kinds := []string{
		KindBaseline, KindBlock, KindPage, KindSubblock,
		KindFootprint, KindFootprintNoSingleton, KindFootprintUnion,
		KindHotPage, KindIdeal,
	}
	var buf bytes.Buffer
	for _, wl := range []string{synth.WebSearch, synth.MapReduce} {
		for _, kind := range kinds {
			for _, mb := range []int{64, 256} {
				d, err := BuildDesign(DesignSpec{Kind: kind, PaperCapacityMB: mb, Scale: parityScale})
				if err != nil {
					t.Fatalf("%s/%s/%dMB: BuildDesign: %v", wl, kind, mb, err)
				}
				got := mustFunctional(RunFunctional(d, parityTrace(t, wl, parityScale), warmup, refs))

				line, err := json.Marshal(parityRow{Workload: wl, Kind: kind, MB: mb, MetadataBits: d.MetadataBits(), Result: got})
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(line)
				buf.WriteByte('\n')
			}
		}
	}
	checkGolden(t, "designs.jsonl", buf.Bytes())
}

// densityRecord summarises an eviction-density sequence: its length,
// its histogram over demanded-block counts, and an FNV-64a hash of the
// sequence (one byte per eviction) that pins the order.
type densityRecord struct {
	Count     int    `json:"count"`
	Histogram []int  `json:"histogram"`
	FNV64     string `json:"fnv64"`
}

// TestGoldenParityDensityObserver pins the Figure 4 seam: the page
// engine's eviction-density observer fires with the sequence recorded
// in testdata/parity/density.json.
func TestGoldenParityDensityObserver(t *testing.T) {
	d, err := BuildDesign(DesignSpec{Kind: KindPage, PaperCapacityMB: 64, Scale: parityScale})
	if err != nil {
		t.Fatal(err)
	}
	eng := d.(*dcache.Engine)
	var got []int
	eng.OnEvict = func(demanded, _ int) { got = append(got, demanded) }
	mustFunctional(RunFunctional(eng, parityTrace(t, synth.MapReduce, parityScale), 0, 30_000))
	if len(got) == 0 {
		t.Fatal("no evictions observed; trace too small for parity check")
	}
	rec := densityRecord{Count: len(got), Histogram: make([]int, eng.Geometry().PageBytes/64+1)}
	h := fnv.New64a()
	for _, v := range got {
		rec.Histogram[v]++
		h.Write([]byte{byte(v)})
	}
	rec.FNV64 = fmt.Sprintf("%016x", h.Sum64())
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "density.json", append(out, '\n'))
}
