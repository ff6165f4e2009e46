package system

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
)

// WarmCache is a content-keyed store of warm-state snapshots: one file
// per (workload, seed, scale, design spec, warmup length) point. The
// paper's methodology simulates from warmed checkpoints (§5.4); the
// cache makes every experiment after the first restore a point's warm
// state in milliseconds instead of re-paying the warmup references —
// which is what lets a full RunAll sweep re-run cheaply while results
// stay byte-identical (snapshot restore is exact by construction).
//
// The cache is an accelerator, never a correctness dependency: a
// corrupt or identity-mismatched entry is quarantined (renamed aside,
// never re-read) and reported as a miss, so the caller falls back to a
// cold warmup and produces rows byte-identical to a never-cached run.
type WarmCache struct {
	dir string
	// maxBytes caps the total size of stored snapshots; see SetMaxBytes.
	maxBytes int64
	// WrapReader/WrapWriter, when non-nil, wrap every snapshot file
	// stream. They exist so a fault-injection harness can corrupt or
	// fail cache I/O without the cache importing it; production runs
	// leave them nil.
	WrapReader func(io.Reader) io.Reader
	WrapWriter func(io.Writer) io.Writer
}

// staleTempAge is how old an orphaned atomic-write temp file must be
// before NewWarmCache sweeps it: old enough that no live writer still
// owns it (a warmup takes seconds, not hours), young enough that a
// crashed sweep's litter disappears on the next run.
const staleTempAge = time.Hour

// NewWarmCache opens (creating if needed) a snapshot cache directory.
// Stale temp files abandoned by crashed writers are swept on open;
// recent temps are left alone, since a concurrent worker may still be
// writing them.
func NewWarmCache(dir string) (*WarmCache, error) {
	if dir == "" {
		//fplint:ignore faulterr caller misconfiguration, not a damaged artifact; ClassUnknown (no quarantine) is right
		return nil, fmt.Errorf("system: warm cache needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("system: creating warm cache: %w", err)
	}
	c := &WarmCache{dir: dir}
	c.sweepStaleTemps()
	return c, nil
}

// sweepStaleTemps removes atomic-write temp files older than
// staleTempAge — the residue of writers that crashed between CreateTemp
// and Rename.
func (c *WarmCache) sweepStaleTemps() {
	matches, err := filepath.Glob(filepath.Join(c.dir, "*.tmp*"))
	if err != nil {
		return
	}
	for _, m := range matches {
		//fplint:ignore determinism mtime age gates temp-file cleanup only; no simulation result depends on it
		if fi, err := os.Stat(m); err == nil && time.Since(fi.ModTime()) > staleTempAge {
			os.Remove(m)
		}
	}
}

// Dir returns the cache directory.
func (c *WarmCache) Dir() string { return c.dir }

// SetMaxBytes caps the total bytes of stored snapshots; 0 (the
// default) is unlimited. When a Store pushes the cache over the cap,
// the oldest entries (by modification time) are evicted until it fits
// again — an eviction only costs the evicted point its next warmup.
func (c *WarmCache) SetMaxBytes(n int64) { c.maxBytes = n }

// WarmKey identifies a warm state: everything that determines the
// functional state after the warmup prefix. Two runs with equal keys
// have byte-identical warm state, whatever experiment asked for them.
type WarmKey struct {
	// Workload, Seed, and Scale pin the generated reference stream.
	Workload string
	Seed     int64
	Scale    float64
	// WarmupRefs is the warmup prefix length.
	WarmupRefs int
	// TraceID and AtRecord identify a state captured from a trace
	// file: the file's content hash and the absolute record index the
	// state was captured at (the warmup boundary for a whole-run
	// replay, an interval start for an interval checkpoint). Generator
	// warmup snapshots leave both zero. They participate in the content
	// key, so a state warmed on one stream can never continue another —
	// generated or recorded, at a different index, or of different
	// trace content.
	TraceID  string
	AtRecord uint64
	// Spec is the design configuration (all fields participate).
	Spec DesignSpec
}

// Hash derives the cache key. Both snapshot format versions (envelope
// and design layout) are part of the key material, so a format bump
// simply misses old entries instead of tripping over them.
func (k WarmKey) Hash() string {
	s := k.Spec.withDefaults()
	h := sha256.New()
	fmt.Fprintf(h, "snap=%d.%d|wl=%s|seed=%d|scale=%g|warm=%d|trace=%s|at=%d|",
		warmStateVersion, dcache.SnapshotVersion, k.Workload, k.Seed, k.Scale, k.WarmupRefs, k.TraceID, k.AtRecord)
	fmt.Fprintf(h, "kind=%s|mb=%d|dscale=%g|alloc=%s|map=%s|fill=%s|part=%s|page=%d|fht=%d|ways=%d",
		s.Kind, s.PaperCapacityMB, s.Scale, s.Alloc, s.Mapping, s.Fill, s.Partition, s.PageBytes, s.FHTEntries, s.Ways)
	return hex.EncodeToString(h.Sum(nil))
}

// Meta returns the run-identity metadata stored inside (and validated
// against) the snapshot itself — defense in depth behind the content
// key.
func (k WarmKey) Meta() SnapshotMeta {
	return SnapshotMeta{
		Workload: k.Workload, Seed: k.Seed, Scale: k.Scale, WarmupRefs: k.WarmupRefs,
		TraceID: k.TraceID, AtRecord: k.AtRecord,
	}
}

// path returns the snapshot file for a key.
func (c *WarmCache) path(key WarmKey) string {
	return filepath.Join(c.dir, key.Hash()+".warm")
}

// QuarantineDirName is the subdirectory quarantined snapshots move to.
// path() only ever resolves dir/<hash>.warm, so a quarantined file can
// never be re-read as a cache entry.
const QuarantineDirName = "quarantine"

// QuarantineEvent records one snapshot pulled out of service.
type QuarantineEvent struct {
	// Key is the entry's content hash.
	Key string
	// Path is where the corrupt file went ("" if it could only be
	// deleted).
	Path string
	// Err is the corruption that triggered the quarantine.
	Err error
}

// Load restores the snapshot for key into s. On a hit it returns
// (true, nil, nil); on a plain miss (false, nil, nil).
//
// A present-but-unreadable snapshot (corruption, identity mismatch,
// truncation, a read error) quarantines the entry and reports a miss
// with the event. A failed restore may have partially mutated s, so
// the caller must rebuild its state fresh before warming cold, as Warm
// does — never measure from a partially restored state.
func (c *WarmCache) Load(key WarmKey, s *SimState) (bool, *QuarantineEvent, error) {
	f, err := os.Open(c.path(key))
	if os.IsNotExist(err) {
		return false, nil, nil
	}
	if err != nil {
		return false, nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if c.WrapReader != nil {
		r = c.WrapReader(r)
	}
	if err := s.Restore(r, key.Meta()); err != nil {
		err = fmt.Errorf("system: restoring warm state %s: %w", c.path(key), err)
		return false, c.quarantine(key, err), nil
	}
	return true, nil, nil
}

// Warm returns key's warm state with src positioned at the first
// measured record. On a hit the state is restored and the warmup
// records of src are skipped, not simulated; on a miss the state is
// built from key.Spec, warmed over key.WarmupRefs records of src, and
// stored. A source that ends or fails inside the warmup prefix is an
// error either way (the source's own error, if it has one, says why):
// a state warmed on a truncated prefix is never stored, and a restored
// one never continues a stream it skipped short.
//
// A quarantined entry comes back as the event (alongside any later
// error): the failed restore may have partially mutated the state, so
// it is rebuilt fresh and warmed cold — the result is byte-identical
// to a never-cached run.
func (c *WarmCache) Warm(key WarmKey, src memtrace.Source) (*SimState, *QuarantineEvent, error) {
	fresh := func() (*SimState, error) {
		d, err := BuildDesign(key.Spec)
		if err != nil {
			return nil, err
		}
		return NewSimState(d), nil
	}
	s, err := fresh()
	if err != nil {
		return nil, nil, err
	}
	hit, ev, err := c.Load(key, s)
	if err != nil {
		return nil, nil, err
	}
	if ev != nil {
		if s, err = fresh(); err != nil {
			return nil, ev, err
		}
	}
	n := key.WarmupRefs
	if hit {
		n = memtrace.Skip(src, n)
	} else if n, err = s.warm(src, n); err != nil {
		return nil, ev, err
	}
	if n != key.WarmupRefs {
		//fplint:ignore faulterr a short source is the caller's to explain (a trace's own Err reports corruption); ClassUnknown (no quarantine) is right
		return nil, ev, fmt.Errorf("system: source ended after %d of %d warmup records", n, key.WarmupRefs)
	}
	if !hit {
		if err := c.Store(key, s); err != nil {
			return nil, ev, err
		}
	}
	return s, ev, nil
}

// quarantine moves a corrupt snapshot aside (best effort: deleted if
// the rename fails) so it is never re-read, and returns the event.
func (c *WarmCache) quarantine(key WarmKey, cause error) *QuarantineEvent {
	ev := &QuarantineEvent{Key: key.Hash(), Err: cause}
	src := c.path(key)
	qdir := filepath.Join(c.dir, QuarantineDirName)
	dst := filepath.Join(qdir, key.Hash()+".warm")
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(src, dst); err == nil {
			ev.Path = dst
			return ev
		}
	}
	os.Remove(src)
	return ev
}

// Store writes s's snapshot for key, atomically (write to a temp file,
// rename into place) so concurrent writers of the same key cannot
// expose a torn snapshot, then enforces the size cap.
func (c *WarmCache) Store(key WarmKey, s *SimState) error {
	f, err := os.CreateTemp(c.dir, key.Hash()+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	var w io.Writer = f
	if c.WrapWriter != nil {
		w = c.WrapWriter(w)
	}
	if err := s.Snapshot(w, key.Meta()); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("system: writing warm state: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, c.path(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	return c.enforceCap()
}

// enforceCap evicts oldest-first (modification time, then name for a
// deterministic tie order) until stored snapshots fit the cap.
func (c *WarmCache) enforceCap() error {
	if c.maxBytes <= 0 {
		return nil
	}
	matches, err := filepath.Glob(filepath.Join(c.dir, "*.warm"))
	if err != nil {
		return err
	}
	type entry struct {
		path string
		size int64
		mod  time.Time
	}
	var entries []entry
	var total int64
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			continue // concurrently evicted or quarantined
		}
		entries = append(entries, entry{m, fi.Size(), fi.ModTime()})
		total += fi.Size()
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mod.Equal(entries[j].mod) {
			return entries[i].mod.Before(entries[j].mod)
		}
		return entries[i].path < entries[j].path
	})
	for _, e := range entries {
		if total <= c.maxBytes {
			break
		}
		if err := os.Remove(e.path); err == nil || os.IsNotExist(err) {
			total -= e.size
		}
	}
	return nil
}
