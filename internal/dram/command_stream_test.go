package dram

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"fpcache/internal/memtrace"
	"fpcache/internal/sim"
)

// commandStreamDigest drives a controller with a seeded stream of 64B
// and 2KB reads and writes, arriving in bursts dense enough to queue
// deeply on every bank and to cross the write-drain threshold, and
// long enough to span many refresh intervals. It returns an FNV-64a
// digest of every traced command, every completion and the final
// Stats, plus the Stats and the number of writes issued while reads
// were waiting (write drain) for sanity checks.
func commandStreamDigest(policy RowPolicy) (uint64, Stats, int) {
	cfg := StackedDDR3_3200()
	cfg.Policy = policy
	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	h := fnv.New64a()
	var buf [8]byte
	drained := 0
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	c.Trace = func(cmd Cmd) {
		if cmd.Kind == CmdWrite && c.chns[cmd.Channel].nReads > 0 {
			drained++
		}
		put(uint64(cmd.Kind))
		put(uint64(cmd.Channel))
		put(uint64(int64(cmd.Bank)))
		put(uint64(cmd.Row))
		put(uint64(cmd.At))
	}
	rng := rand.New(rand.NewSource(20130623))
	const n = 6000
	at := sim.Cycle(0)
	for i := 0; i < n; i++ {
		// Bursty arrivals: mostly back-to-back, with idle gaps that
		// let queues drain and refresh land on idle and busy banks.
		switch {
		case rng.Intn(50) == 0:
			at += sim.Cycle(rng.Intn(4000))
		case rng.Intn(3) == 0:
			at += sim.Cycle(rng.Intn(40))
		}
		bytes := 64
		if rng.Intn(5) == 0 {
			bytes = 2048
		}
		// A small hot region gives row hits; a wide one conflicts.
		var addr memtrace.Addr
		if rng.Intn(2) == 0 {
			addr = memtrace.Addr(rng.Intn(1<<16)) &^ memtrace.Addr(bytes-1)
		} else {
			addr = memtrace.Addr(rng.Intn(1<<26)) &^ memtrace.Addr(bytes-1)
		}
		// Write-heavy phases push a channel's write queue over the
		// drain threshold while reads are pending.
		write := rng.Intn(3) == 0
		if (i/400)%3 == 2 {
			write = rng.Intn(4) != 0
		}
		id := uint64(i)
		req := &Request{Addr: addr, Bytes: bytes, Write: write, Done: func(done sim.Cycle) {
			put(id)
			put(uint64(done))
		}}
		eng.Schedule(at, func() { c.Submit(req) })
	}
	eng.Run(nil)
	s := c.Stats
	for _, v := range []uint64{s.Activates, s.ReadBursts, s.WriteBursts, s.RowHits,
		s.RowMisses, s.RowConflict, s.Refreshes, c.LatencySum, c.LatencyCount} {
		put(v)
	}
	return h.Sum64(), s, drained
}

// TestControllerCommandStreamUnchanged pins the controller's exact
// command stream, completion cycles and Stats under both row policies
// to fixed digests, so a change to the arbitration code that alters
// any simulated number fails here, not only in the full-size benchmark
// goldens. A deliberate scheduling change updates the digests.
func TestControllerCommandStreamUnchanged(t *testing.T) {
	want := map[RowPolicy]uint64{
		OpenPage:  0xebd5baae064ae716,
		ClosePage: 0xbab37d84c223fd2b,
	}
	for _, policy := range []RowPolicy{OpenPage, ClosePage} {
		got, s, drained := commandStreamDigest(policy)
		if s.Refreshes == 0 || s.RowConflict == 0 || drained == 0 ||
			(policy == OpenPage && s.RowHits == 0) {
			t.Fatalf("%v: stream too light to pin refresh, row conflicts and write drain: %+v, %d drained writes",
				policy, s, drained)
		}
		if got != want[policy] {
			t.Errorf("%v: command-stream digest %#x, want %#x (stats %+v)", policy, got, want[policy], s)
		}
	}
}
