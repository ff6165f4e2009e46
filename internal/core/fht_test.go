package core

import (
	"testing"
	"testing/quick"

	"fpcache/internal/memtrace"
)

func mustFHT(t *testing.T, entries, ways int) *FHT {
	t.Helper()
	f, err := NewFHT(entries, ways)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFHTGeometryValidation(t *testing.T) {
	for _, g := range [][2]int{{0, 1}, {16, 0}, {10, 4}} {
		if _, err := NewFHT(g[0], g[1]); err == nil {
			t.Fatalf("geometry %v accepted", g)
		}
	}
	if f := mustFHT(t, 16*1024, 16); f.Entries() != 16*1024 {
		t.Fatalf("Entries = %d", f.Entries())
	}
}

func TestFHTColdThenLearn(t *testing.T) {
	f := mustFHT(t, 1024, 8)
	pc, off := memtrace.PC(0x400100), 5

	if _, _, ok := f.Predict(pc, off); ok {
		t.Fatal("cold predict hit")
	}
	if f.Cold != 1 || f.Queries != 1 {
		t.Fatalf("cold=%d queries=%d", f.Cold, f.Queries)
	}

	ptr := f.Allocate(pc, off, 1<<5)
	if ptr == NoPtr {
		t.Fatal("Allocate returned NoPtr")
	}
	fp, ptr2, ok := f.Predict(pc, off)
	if !ok || fp != 1<<5 || ptr2 != ptr {
		t.Fatalf("predict after allocate: fp=%b ptr=%v ok=%v", fp, ptr2, ok)
	}

	// Eviction feedback replaces the footprint (§4.2).
	f.Update(ptr, 0b1110)
	fp, _, _ = f.Predict(pc, off)
	if fp != 0b1110 {
		t.Fatalf("after update fp=%b", fp)
	}
	if f.Updates != 1 {
		t.Fatalf("updates=%d", f.Updates)
	}
}

func TestFHTUpdateUnionAccumulates(t *testing.T) {
	f := mustFHT(t, 64, 4)
	ptr := f.Allocate(0x400000, 0, 0b0001)
	f.UpdateUnion(ptr, 0b0110)
	fp, _, _ := f.Predict(0x400000, 0)
	if fp != 0b0111 {
		t.Fatalf("union feedback = %b, want 0111", fp)
	}
	f.Update(ptr, 0b1000) // replace policy overwrites
	fp, _, _ = f.Predict(0x400000, 0)
	if fp != 0b1000 {
		t.Fatalf("replace feedback = %b, want 1000", fp)
	}
}

func TestFHTUpdateIgnoresEmptyAndNoPtr(t *testing.T) {
	f := mustFHT(t, 64, 4)
	ptr := f.Allocate(0x400000, 0, 1)
	f.Update(NoPtr, 0b11)
	f.Update(ptr, 0) // empty demanded vector: no feedback
	fp, _, _ := f.Predict(0x400000, 0)
	if fp != 1 {
		t.Fatalf("footprint corrupted: %b", fp)
	}
	if f.Updates != 0 {
		t.Fatal("bogus updates counted")
	}
}

func TestFHTStalePointerWritesSlot(t *testing.T) {
	// The paper tolerates stale pointers (§4.2): feedback through a
	// replaced slot updates whatever lives there now. Verify it does
	// not crash and does not touch other slots.
	f := mustFHT(t, 8, 2)
	var ptrs []Ptr
	for i := 0; i < 32; i++ { // force replacements
		ptrs = append(ptrs, f.Allocate(memtrace.PC(0x400000+i*64), i%8, 1<<uint(i%32)))
	}
	f.Update(ptrs[0], 0xFF) // likely stale by now
	if f.slot(Ptr(999)) != nil {
		t.Fatal("out-of-range slot not nil")
	}
	f.Update(Ptr(999), 0xFF) // must not panic
}

func TestFHTDistinctKeysDistinctEntries(t *testing.T) {
	f := mustFHT(t, 16*1024, 16)
	// Same PC, different offsets must key differently (the paper's
	// PC & offset indexing, §3.1).
	pc := memtrace.PC(0x400200)
	f.Allocate(pc, 1, 0b0001)
	f.Allocate(pc, 2, 0b0010)
	fp1, _, ok1 := f.Predict(pc, 1)
	fp2, _, ok2 := f.Predict(pc, 2)
	if !ok1 || !ok2 || fp1 == fp2 {
		t.Fatalf("offset aliasing: %b vs %b", fp1, fp2)
	}
}

// tableKB is FootprintPolicy.TableBits in KB for the paper's 2KB-page
// configuration with edit applied.
func tableKB(t *testing.T, edit func(*Config)) float64 {
	t.Helper()
	cfg := Default(256 << 20)
	edit(&cfg)
	p, err := NewFootprintPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return float64(p.TableBits(cfg.Geometry.PageBytes/64)) / 8 / 1024
}

func TestFHTMetadataBudget(t *testing.T) {
	// Paper §4.2: 16K entries = 144KB for 2KB pages. The FHT's share
	// of the policy's table budget is what 16K more entries add.
	kb := tableKB(t, func(c *Config) { c.FHTEntries = 32 * 1024 }) - tableKB(t, func(*Config) {})
	if kb < 130 || kb > 160 {
		t.Fatalf("FHT storage = %.0fKB, want ~144KB", kb)
	}
}

// Property: Allocate/Predict roundtrip holds for arbitrary keys while
// capacity is not exceeded.
func TestPropertyFHTRoundtrip(t *testing.T) {
	f := func(pcs []uint32) bool {
		fht := mustFHTQuick(64 * 1024)
		seen := map[uint64]uint64{}
		for i, pcRaw := range pcs {
			if i >= 1000 {
				break
			}
			pc := memtrace.PC(pcRaw)
			off := int(pcRaw % 32)
			want := uint64(1)<<off | uint64(pcRaw)
			fht.Allocate(pc, off, want)
			seen[uint64(pc)<<8|uint64(off)] = want
		}
		for key, want := range seen {
			fp, _, ok := fht.Predict(memtrace.PC(key>>8), int(key&0xFF))
			if !ok || fp != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func mustFHTQuick(entries int) *FHT {
	f, err := NewFHT(entries, 16)
	if err != nil {
		panic(err)
	}
	return f
}

func TestSTNoteCheckCorrect(t *testing.T) {
	st, err := NewST(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries() != 512 {
		t.Fatalf("Entries = %d", st.Entries())
	}
	st.Note(100, 0x400500, 3)

	// Same offset again: consistent with singleton, no correction.
	if _, _, ok := st.Check(100, 3); ok {
		t.Fatal("same-offset access flagged as correction")
	}
	// Different offset: underprediction caught, entry invalidated.
	pc, off, ok := st.Check(100, 9)
	if !ok || pc != 0x400500 || off != 3 {
		t.Fatalf("correction = %v %v %v", pc, off, ok)
	}
	// The policy counts corrections, in Extra().STCorrections
	// (footprint_test.go).
	// Entry gone after correction.
	if _, _, ok := st.Check(100, 9); ok {
		t.Fatal("corrected entry still present")
	}
}

func TestSTUnknownPage(t *testing.T) {
	st, _ := NewST(64, 4)
	if _, _, ok := st.Check(42, 0); ok {
		t.Fatal("unknown page produced a correction")
	}
}

func TestSTNoteOverwrites(t *testing.T) {
	st, _ := NewST(64, 4)
	st.Note(7, 0x400000, 1)
	st.Note(7, 0x400004, 2) // re-bypass with different key
	pc, off, ok := st.Check(7, 5)
	if !ok || pc != 0x400004 || off != 2 {
		t.Fatalf("overwrite lost: %v %v %v", pc, off, ok)
	}
}

func TestSTMetadataBudget(t *testing.T) {
	// ~3KB at 512 entries (§4.4): what 512 more ST entries add.
	kb := tableKB(t, func(c *Config) { c.STEntries = 1024 }) - tableKB(t, func(*Config) {})
	if kb < 2.5 || kb > 3.5 {
		t.Fatalf("ST storage = %.1fKB, want ~3KB", kb)
	}
}

func TestGeometryBadST(t *testing.T) {
	if _, err := NewST(0, 1); err == nil {
		t.Fatal("bad ST accepted")
	}
	if _, err := NewST(10, 4); err == nil {
		t.Fatal("indivisible ST accepted")
	}
}
