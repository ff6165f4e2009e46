package system

import (
	"math/rand"
	"testing"

	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
)

// refEntry is one record of the plain slice queue the chunked queues
// are checked against.
type refEntry struct {
	rec       memtrace.Record
	tagCycles int
	ops       []dcache.Op
}

// randOps returns n distinguishable ops.
func randOps(rng *rand.Rand, n int) []dcache.Op {
	ops := make([]dcache.Op, n)
	for i := range ops {
		ops[i] = dcache.Op{
			Addr:      memtrace.Addr(rng.Uint64()),
			Bytes:     64 * (1 + rng.Intn(32)),
			Level:     dcache.Level(rng.Intn(2)),
			Write:     rng.Intn(2) == 0,
			Critical:  rng.Intn(2) == 0,
			DependsOn: int32(rng.Intn(i+1)) - 1,
		}
	}
	return ops
}

// TestCoreQueueMatchesSliceQueue drives the chunked per-core queues of
// one demux pool against plain slice queues: pushes and pops cross
// chunk boundaries, some records carry no ops and some more ops than a
// chunk holds. Every pop must return the oldest record of its queue
// with its ops, and those ops must stay intact while other queues push
// until that queue's next pop.
func TestCoreQueueMatchesSliceQueue(t *testing.T) {
	const cores, steps = 3, 200_000
	rng := rand.New(rand.NewSource(1))
	var pool chunkPool
	queues := make([]coreQueue, cores)
	ref := make([][]refEntry, cores)
	// held is each queue's last popped entry, rechecked before the
	// queue's next pop.
	held := make([]*refEntry, cores)
	heldOps := make([][]dcache.Op, cores)
	queued, highWater, oversize := 0, 0, 0

	for step := 0; step < steps; step++ {
		c := rng.Intn(cores)
		// Drift the target depth so the queues fill and drain across
		// many chunks over the run.
		target := 600 + 500*((step/20_000)%2)
		if rng.Intn(2*target) >= queued {
			// Mostly zero to four ops; a few long outcomes make some
			// chunks fill their ops before their records.
			n := rng.Intn(5)
			switch {
			case rng.Intn(20) == 0:
				n = 16 + rng.Intn(48)
			case rng.Intn(5000) == 0:
				n = chunkOps + 1 + rng.Intn(chunkOps)
				oversize++
			}
			e := refEntry{
				rec:       memtrace.Record{PC: memtrace.PC(step), Addr: memtrace.Addr(rng.Uint64()), Core: uint8(c)},
				tagCycles: rng.Intn(40),
				ops:       randOps(rng, n),
			}
			queues[c].push(&pool, e.rec, e.tagCycles, e.ops)
			ref[c] = append(ref[c], e)
			if queued++; queued > highWater {
				highWater = queued
			}
			continue
		}
		if h := held[c]; h != nil {
			checkPopped(t, step, c, *h, heldOps[c])
		}
		r, ops, ok := popNext(&queues[c], &pool)
		if ok != (len(ref[c]) > 0) {
			t.Fatalf("step %d: queue %d pop ok=%v with %d reference records queued", step, c, ok, len(ref[c]))
		}
		if !ok {
			held[c] = nil
			continue
		}
		want := ref[c][0]
		ref[c] = ref[c][1:]
		queued--
		if r.rec != want.rec || int(r.tagCycles) != want.tagCycles || int(r.nops) != len(want.ops) {
			t.Fatalf("step %d: queue %d popped %+v, want record %+v, tag cycles %d, %d ops",
				step, c, r, want.rec, want.tagCycles, len(want.ops))
		}
		held[c], heldOps[c] = &want, ops
		checkPopped(t, step, c, want, ops)
	}
	for c := range queues {
		for _, want := range ref[c] {
			r, ops, ok := popNext(&queues[c], &pool)
			if !ok || r.rec != want.rec {
				t.Fatalf("drain: queue %d popped %+v (ok=%v), want %+v", c, r.rec, ok, want.rec)
			}
			checkPopped(t, steps, c, want, ops)
		}
		if _, _, ok := popNext(&queues[c], &pool); ok {
			t.Fatalf("drain: queue %d pops past its reference", c)
		}
		if queues[c].head != nil {
			t.Errorf("drain: empty queue %d still holds a chunk", c)
		}
	}

	// Each queue holds its records' chunks plus at most a partly
	// popped head, a partly pushed tail and a passed chunk not yet
	// returned, so the chunks made follow the high-water mark, not the
	// steps run (which would take hundreds). The factor 2 allows for
	// chunks whose ops fill before their records.
	bound := oversize + 2*highWater/chunkRecs + 3*cores
	t.Logf("%d steps, high water %d records: %d chunks made (%d oversize), bound %d", steps, highWater, pool.made, oversize, bound)
	if pool.made > bound {
		t.Errorf("%d chunks made for a high water of %d records, want <= %d", pool.made, highWater, bound)
	}
	if highWater*20 > steps {
		t.Fatalf("high water %d is too close to the run length %d to tell reuse from growth", highWater, steps)
	}
}

// popNext pops the queue's oldest record the way demux.pull does,
// advancing past every chunk the head has emptied.
func popNext(q *coreQueue, pool *chunkPool) (queuedRec, []dcache.Op, bool) {
	for {
		if r, ops, ok := q.pop(); ok {
			return r, ops, true
		}
		if !q.advance(pool) {
			return queuedRec{}, nil, false
		}
	}
}

// checkPopped compares a popped record's ops with the reference's.
func checkPopped(t *testing.T, step, c int, want refEntry, ops []dcache.Op) {
	t.Helper()
	if len(ops) != len(want.ops) {
		t.Fatalf("step %d: queue %d record %d holds %d ops, want %d", step, c, want.rec.PC, len(ops), len(want.ops))
	}
	for i := range ops {
		if ops[i] != want.ops[i] {
			t.Fatalf("step %d: queue %d record %d op %d is %+v, want %+v", step, c, want.rec.PC, i, ops[i], want.ops[i])
		}
	}
}
