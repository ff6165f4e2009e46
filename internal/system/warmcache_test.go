package system

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fpcache/internal/memtrace"
	"fpcache/internal/synth"
)

// wcSpec is the small design the warm-cache robustness tests store.
func wcSpec() DesignSpec {
	return DesignSpec{Kind: KindFootprint, PaperCapacityMB: 64, Scale: 1.0 / 64}
}

// wcKey builds a cache key over wcSpec, varied by seed.
func wcKey(seed int64) WarmKey {
	return WarmKey{Workload: synth.WebSearch, Seed: seed, Scale: 1.0 / 64, WarmupRefs: 0, Spec: wcSpec()}
}

// wcState builds a fresh SimState for wcSpec.
func wcState(t *testing.T) *SimState {
	t.Helper()
	d, err := BuildDesign(wcSpec())
	if err != nil {
		t.Fatal(err)
	}
	return NewSimState(d)
}

// TestWarmCacheTornTempNeverVisible pins the crash-mid-write atomicity
// contract: a writer that died between CreateTemp and Rename leaves a
// temp file that is never served as a cache entry, and a recent temp
// (possibly a live concurrent writer's) survives reopening the cache.
func TestWarmCacheTornTempNeverVisible(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewWarmCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := wcKey(1)
	torn := filepath.Join(dir, key.Hash()+".tmp12345")
	if err := os.WriteFile(torn, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	if hit, ev, err := cache.Load(key, wcState(t)); err != nil || hit || ev != nil {
		t.Fatalf("torn temp served as an entry: hit=%v ev=%v err=%v", hit, ev, err)
	}
	// Reopening must leave the recent temp alone — its writer may be
	// alive on another worker.
	if _, err := NewWarmCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); err != nil {
		t.Fatalf("recent temp file swept: %v", err)
	}
}

// TestWarmCacheStaleTempSweep pins the other half: temps older than the
// stale age are residue of crashed writers and are removed on open.
func TestWarmCacheStaleTempSweep(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewWarmCache(dir); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, wcKey(1).Hash()+".tmp999")
	if err := os.WriteFile(stale, []byte("crashed writer residue"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWarmCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived reopen: %v", err)
	}
}

// failAfterWriter errors once n bytes have passed — a disk that fills
// mid-snapshot.
type failAfterWriter struct {
	w io.Writer
	n int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	n, err := f.w.Write(p)
	f.n -= n
	if err == nil && f.n <= 0 {
		err = errors.New("disk full")
	}
	return n, err
}

// TestWarmCacheStoreFailureLeavesNoLitter pins Store's cleanup: a write
// error mid-snapshot removes the temp file and installs nothing.
func TestWarmCacheStoreFailureLeavesNoLitter(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewWarmCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.WrapWriter = func(w io.Writer) io.Writer { return &failAfterWriter{w: w, n: 100} }
	if err := cache.Store(wcKey(1), wcState(t)); err == nil {
		t.Fatal("Store succeeded through a failing writer")
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed Store left litter: %v", entries)
	}
}

// TestWarmCacheQuarantineMovesEntryAside pins the quarantine mechanics
// at the cache layer: a corrupt entry is renamed into the quarantine
// subdirectory (never deleted silently, never re-read), the Load
// reports the event as a miss, and the slot is immediately reusable.
func TestWarmCacheQuarantineMovesEntryAside(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewWarmCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := wcKey(1)
	if err := cache.Store(key, wcState(t)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Hash()+".warm")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[3] ^= 0x40 // corrupt the envelope header
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	hit, ev, err := cache.Load(key, wcState(t))
	if err != nil || hit {
		t.Fatalf("corrupt entry: hit=%v err=%v", hit, err)
	}
	if ev == nil || ev.Err == nil {
		t.Fatalf("no quarantine event for a corrupt entry")
	}
	wantPath := filepath.Join(dir, QuarantineDirName, key.Hash()+".warm")
	if ev.Path != wantPath {
		t.Fatalf("quarantined to %q, want %q", ev.Path, wantPath)
	}
	if _, err := os.Stat(wantPath); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still in place: %v", err)
	}
	// The slot is now a plain miss and can be restored.
	if hit, ev, err := cache.Load(key, wcState(t)); err != nil || hit || ev != nil {
		t.Fatalf("after quarantine: hit=%v ev=%v err=%v", hit, ev, err)
	}
	if err := cache.Store(key, wcState(t)); err != nil {
		t.Fatal(err)
	}
	if hit, ev, err := cache.Load(key, wcState(t)); err != nil || !hit || ev != nil {
		t.Fatalf("re-stored entry: hit=%v ev=%v err=%v", hit, ev, err)
	}
}

// TestWarmCacheSizeCapEvictsOldest pins the -state-cache-max contract:
// when stored snapshots exceed the cap, the oldest entries (by mtime)
// are evicted first, and newer entries survive.
func TestWarmCacheSizeCapEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewWarmCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []WarmKey{wcKey(1), wcKey(2), wcKey(3)}
	for i, k := range keys {
		if err := cache.Store(k, wcState(t)); err != nil {
			t.Fatal(err)
		}
		// Stagger mtimes: keys[0] oldest.
		mod := time.Now().Add(time.Duration(i-len(keys)) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, k.Hash()+".warm"), mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, keys[0].Hash()+".warm"))
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()

	// Cap at ~2.5 entries, then store a fourth: the two oldest must go.
	cache.SetMaxBytes(2*size + size/2)
	k4 := wcKey(4)
	if err := cache.Store(k4, wcState(t)); err != nil {
		t.Fatal(err)
	}
	for i, k := range []WarmKey{keys[0], keys[1]} {
		if hit, _, _ := cache.Load(k, wcState(t)); hit {
			t.Fatalf("entry %d survived the cap", i)
		}
	}
	for i, k := range []WarmKey{keys[2], k4} {
		if hit, ev, err := cache.Load(k, wcState(t)); err != nil || !hit || ev != nil {
			t.Fatalf("newest entry %d evicted: hit=%v ev=%v err=%v", i, hit, ev, err)
		}
	}
}

// TestWarmKeyIntervalIdentity pins the key-collision regression from
// the interval-parallel runner: an interval checkpoint (trace content
// hash + start record) must hash to a different cache entry than the
// whole-run warmup snapshot of the same point, and than checkpoints of
// the same record index over different trace content. A restore under
// the wrong identity must also fail the snapshot's own meta check.
func TestWarmKeyIntervalIdentity(t *testing.T) {
	whole := wcKey(1)
	interval := whole
	interval.TraceID = "sha256:abc"
	interval.AtRecord = 4096
	otherTrace := interval
	otherTrace.TraceID = "sha256:def"
	otherStart := interval
	otherStart.AtRecord = 8192

	keys := map[string]string{
		"whole-run":   whole.Hash(),
		"interval":    interval.Hash(),
		"other-trace": otherTrace.Hash(),
		"other-start": otherStart.Hash(),
	}
	seen := map[string]string{}
	for name, h := range keys {
		if prev, dup := seen[h]; dup {
			t.Fatalf("keys %q and %q collide: %s", name, prev, h)
		}
		seen[h] = name
	}

	// Defense in depth: even with a forced key collision (copying the
	// file), the snapshot's embedded meta rejects the wrong identity.
	dir := t.TempDir()
	cache, err := NewWarmCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(interval, wcState(t)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cache.path(interval))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.path(whole), data, 0o644); err != nil {
		t.Fatal(err)
	}
	hit, ev, err := cache.Load(whole, wcState(t))
	if err != nil || hit {
		t.Fatalf("interval snapshot restored under whole-run identity: hit=%v err=%v", hit, err)
	}
	if ev == nil {
		t.Fatal("identity mismatch did not quarantine the entry")
	}
}

// TestWarmCacheWarm pins the load-or-warm contract: a miss warms and
// stores, a hit restores and skips the warmup records, and a corrupt
// entry is quarantined and warmed cold into a freshly built state.
// Each leaves the source at the first measured record, so all three
// measure exactly what an uncached run does.
func TestWarmCacheWarm(t *testing.T) {
	const scale, warmup, refs = 1.0 / 64, 10_000, 10_000
	spec := DesignSpec{Kind: KindFootprint, PaperCapacityMB: 64, Scale: scale}
	key := WarmKey{Workload: synth.WebSearch, Seed: 11, Scale: scale, WarmupRefs: warmup, Spec: spec}
	d, err := BuildDesign(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(mustFunctional(RunFunctional(d, snapTrace(t, scale), warmup, refs)))

	dir := t.TempDir()
	cache, err := NewWarmCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(stage string) *QuarantineEvent {
		t.Helper()
		src := snapTrace(t, scale)
		s, ev, err := cache.Warm(key, src)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		got, _ := json.Marshal(mustFunctional(s.Measure(src, refs)))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s run diverges from the uncached run\nwant %s\ngot  %s", stage, want, got)
		}
		return ev
	}

	if ev := measure("cold"); ev != nil {
		t.Fatalf("cold run quarantined: %v", ev.Err)
	}
	path := filepath.Join(dir, key.Hash()+".warm")
	stored, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cold run stored no entry: %v", err)
	}
	if ev := measure("warm"); ev != nil {
		t.Fatalf("warm run quarantined: %v", ev.Err)
	}

	// Corrupt a byte deep in the design payload, so the restore fails
	// after mutating part of the state.
	bad := append([]byte(nil), stored...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if ev := measure("quarantined"); ev == nil {
		t.Fatal("corrupt entry restored without a quarantine event")
	}
	restored, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(restored, stored) {
		t.Fatalf("quarantined run did not re-store the entry (err %v)", err)
	}
}

// TestWarmCacheWarmRefusesShortSource pins that a source ending inside
// the warmup prefix fails the point instead of yielding a state warmed
// on the truncated prefix: a miss stores nothing, and a hit whose skip
// comes up short is an error too.
func TestWarmCacheWarmRefusesShortSource(t *testing.T) {
	const scale, warmup = 1.0 / 64, 10_000
	key := WarmKey{Workload: synth.WebSearch, Seed: 11, Scale: scale, WarmupRefs: warmup,
		Spec: DesignSpec{Kind: KindFootprint, PaperCapacityMB: 64, Scale: scale}}
	dir := t.TempDir()
	cache, err := NewWarmCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	short := func() memtrace.Source { return &memtrace.Limit{Src: snapTrace(t, scale), N: warmup / 2} }

	if _, _, err := cache.Warm(key, short()); err == nil {
		t.Fatal("cold warmup over a short source succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, key.Hash()+".warm")); !os.IsNotExist(err) {
		t.Fatalf("short warmup stored an entry (stat err %v)", err)
	}
	if _, _, err := cache.Warm(key, snapTrace(t, scale)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Warm(key, short()); err == nil {
		t.Fatal("restore over a short source succeeded")
	}
}
