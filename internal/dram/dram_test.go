package dram

import (
	"testing"
	"testing/quick"

	"fpcache/internal/memtrace"
	"fpcache/internal/sim"
)

func TestTable3Timing(t *testing.T) {
	tm := Table3Timing()
	if tm.TCAS != 11 || tm.TRCD != 11 || tm.TRP != 11 || tm.TRAS != 28 {
		t.Fatalf("Table 3 core timing wrong: %+v", tm)
	}
	if tm.TRRD != 5 || tm.TFAW != 24 {
		t.Fatalf("Table 3 activate windows wrong: %+v", tm)
	}
}

func TestConfigValidate(t *testing.T) {
	good := OffChipDDR3_1600()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"non-power-of-two row", func(c *Config) { c.RowBytes = 1000 }, false},
		{"zero channels", func(c *Config) { c.Channels = 0 }, false},
		{"non-power-of-two interleave", func(c *Config) { c.InterleaveBytes = 96 }, false},
		{"64 banks per channel", func(c *Config) { c.BanksPerChan = 64 }, true},
		{"65 banks per channel", func(c *Config) { c.BanksPerChan = 65 }, false},
	} {
		cfg := good
		tc.mutate(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestBandwidthRatios(t *testing.T) {
	// Table 3 per pod: off-chip = 1 channel x 64-bit x 0.8GHz DDR =
	// 12.8GB/s; stacked = 4 channels x 128-bit x 1.6GHz DDR =
	// 204.8GB/s (16x) — the TSV bandwidth the paper calls "virtually
	// unlimited" relative to the off-chip interface.
	off := OffChipDDR3_1600()
	stk := StackedDDR3_3200()
	offBW := float64(off.Channels*off.BusBytesPerCy) / off.CPUPerBusCy
	stkBW := float64(stk.Channels*stk.BusBytesPerCy) / stk.CPUPerBusCy
	if offGBs := offBW * 3; offGBs < 12.7 || offGBs > 12.9 {
		t.Fatalf("off-chip bandwidth = %.1fGB/s, want 12.8", offGBs)
	}
	if ratio := stkBW / offBW; ratio < 15.9 || ratio > 16.1 {
		t.Fatalf("stacked/off-chip bandwidth ratio = %.2f, want 16", ratio)
	}
}

func TestDecodeChannelInterleaving(t *testing.T) {
	cfg := StackedDDR3_3200() // 4 channels, 2KB interleave
	for i := 0; i < 8; i++ {
		loc := cfg.Decode(memtrace.Addr(i * 2048))
		if loc.Channel != i%4 {
			t.Fatalf("chunk %d -> channel %d, want %d", i, loc.Channel, i%4)
		}
	}
	// Within one chunk, the channel must not change.
	base := memtrace.Addr(3 * 2048)
	ch := cfg.Decode(base).Channel
	for off := 0; off < 2048; off += 64 {
		if got := cfg.Decode(base + memtrace.Addr(off)).Channel; got != ch {
			t.Fatalf("channel changed within an interleave chunk at +%d", off)
		}
	}
}

func TestDecodeBounds(t *testing.T) {
	f := func(addr uint64) bool {
		cfg := StackedDDR3_3200()
		loc := cfg.Decode(memtrace.Addr(addr))
		return loc.Channel >= 0 && loc.Channel < cfg.Channels &&
			loc.Bank >= 0 && loc.Bank < cfg.BanksPerChan && loc.Row >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDistinctRowsForDistinctChunks(t *testing.T) {
	cfg := OffChipDDR3_1600()
	a := cfg.Decode(0)
	b := cfg.Decode(2048 * memtrace.Addr(cfg.Channels)) // next row, same channel
	if a.Channel != b.Channel {
		t.Fatalf("expected same channel, got %d vs %d", a.Channel, b.Channel)
	}
	if a.Bank == b.Bank && a.Row == b.Row {
		t.Fatal("distinct 2KB chunks mapped to the same row")
	}
}

func TestRowSpanPageFitsOneRow(t *testing.T) {
	cfg := StackedDDR3_3200()
	if n := cfg.RowSpan(0, 2048); n != 1 {
		t.Fatalf("2KB page spans %d rows, want 1", n)
	}
	if n := cfg.RowSpan(0, 64); n != 1 {
		t.Fatalf("single block spans %d rows", n)
	}
	if n := cfg.RowSpan(0, 0); n != 0 {
		t.Fatalf("empty span = %d", n)
	}
}

func TestTrackerRowHitsOpenPage(t *testing.T) {
	cfg := StackedDDR3_3200()
	cfg.Policy = OpenPage
	tr := NewTracker(cfg)
	tr.Access(0, 64, false)  // activate
	tr.Access(64, 64, false) // same row: hit
	if tr.Stats.Activates != 1 || tr.Stats.RowHits != 1 {
		t.Fatalf("open-page: activates=%d rowhits=%d", tr.Stats.Activates, tr.Stats.RowHits)
	}
}

func TestTrackerClosePageAlwaysActivates(t *testing.T) {
	cfg := StackedDDR3_3200()
	cfg.Policy = ClosePage
	tr := NewTracker(cfg)
	tr.Access(0, 64, false)
	tr.Access(64, 64, false) // row was closed: activate again
	if tr.Stats.Activates != 2 || tr.Stats.RowHits != 0 {
		t.Fatalf("close-page: activates=%d rowhits=%d", tr.Stats.Activates, tr.Stats.RowHits)
	}
}

func TestTrackerRowConflict(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage
	cfg.InterleaveBytes = 2048
	tr := NewTracker(cfg)
	tr.Access(0, 64, false)
	// Same channel+bank, different row: with 1 channel and 8 banks,
	// rows rotate banks, so jump 8 rows ahead.
	conflictAddr := memtrace.Addr(8 * 2048)
	if tr.cfg.Decode(conflictAddr).Bank != tr.cfg.Decode(0).Bank {
		t.Fatal("test geometry wrong: banks differ")
	}
	tr.Access(conflictAddr, 64, false)
	if tr.Stats.RowConflict != 1 {
		t.Fatalf("conflicts = %d, want 1", tr.Stats.RowConflict)
	}
}

func TestTrackerPageTransferOneActivation(t *testing.T) {
	// The page-granularity property (§2.3): a whole 2KB transfer costs
	// one activation on open-page DRAM.
	cfg := StackedDDR3_3200()
	tr := NewTracker(cfg)
	tr.Access(4096, 2048, true)
	if tr.Stats.Activates != 1 {
		t.Fatalf("2KB fill cost %d activations, want 1", tr.Stats.Activates)
	}
	if tr.Stats.WriteBursts != 32 {
		t.Fatalf("2KB fill = %d write bursts, want 32", tr.Stats.WriteBursts)
	}
}

func TestTrackerAccessBlocksSparse(t *testing.T) {
	cfg := StackedDDR3_3200()
	tr := NewTracker(cfg)
	tr.AccessBlocks(0, 0b1011, false) // blocks 0, 1, 3
	if tr.Stats.ReadBursts != 3 {
		t.Fatalf("sparse access read %d bursts, want 3", tr.Stats.ReadBursts)
	}
	if tr.Stats.Activates != 1 {
		t.Fatalf("sparse same-row access cost %d activations", tr.Stats.Activates)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Activates: 5, ReadBursts: 10, WriteBursts: 3, RowHits: 7, RowMisses: 4, RowConflict: 1}
	b := Stats{Activates: 10, ReadBursts: 20, WriteBursts: 6, RowHits: 14, RowMisses: 8, RowConflict: 2}
	if diff := b.Sub(a); diff != a {
		t.Fatalf("Sub wrong: %+v", diff)
	}
	if a.DataBytes() != 13*64 {
		t.Fatalf("DataBytes = %d", a.DataBytes())
	}
	if rh := a.RowHitRatio(); rh < 0.58 || rh > 0.59 {
		t.Fatalf("RowHitRatio = %g", rh)
	}
}

// --- Controller (timing) tests ---

func runOne(t *testing.T, cfg Config, reqs []*Request) *Controller {
	t.Helper()
	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	for _, r := range reqs {
		c.Submit(r)
	}
	eng.Run(nil)
	return c
}

func TestControllerCompletesAllRequests(t *testing.T) {
	cfg := StackedDDR3_3200()
	done := 0
	var reqs []*Request
	for i := 0; i < 50; i++ {
		reqs = append(reqs, &Request{
			Addr: memtrace.Addr(i * 64), Bytes: 64,
			Done: func(sim.Cycle) { done++ },
		})
	}
	c := runOne(t, cfg, reqs)
	if done != 50 {
		t.Fatalf("completed %d of 50", done)
	}
	if c.Stats.ReadBursts != 50 {
		t.Fatalf("read bursts = %d", c.Stats.ReadBursts)
	}
	if c.LatencyCount != 50 {
		t.Fatalf("latency samples = %d", c.LatencyCount)
	}
}

// TestControllerReusedRequest pins the completion contract for
// long-lived requests: a request resubmitted after its Done fired
// completes again at its new cycle without allocating, and a copy of a
// completed request reports through its own Done, not the original's.
func TestControllerReusedRequest(t *testing.T) {
	eng := &sim.Engine{}
	c := NewController(eng, StackedDDR3_3200())
	var got []sim.Cycle
	req := &Request{Addr: 0, Bytes: 64, Done: func(at sim.Cycle) { got = append(got, at) }}
	c.Submit(req)
	eng.Run(nil)
	c.Submit(req)
	eng.Run(nil)
	if len(got) != 2 || got[1] <= got[0] || got[1] != eng.Now() {
		t.Fatalf("resubmitted request completions %v (now %d)", got, eng.Now())
	}

	copied, original := 0, 0
	req.Done = func(sim.Cycle) { original++ }
	cp := *req
	cp.Done = func(sim.Cycle) { copied++ }
	c.Submit(&cp)
	eng.Run(nil)
	if copied != 1 || original != 0 {
		t.Fatalf("copy completed through copy %d times, original %d times", copied, original)
	}

	req.Done = func(sim.Cycle) {}
	if avg := testing.AllocsPerRun(100, func() {
		c.Submit(req)
		eng.Run(nil)
	}); avg != 0 {
		t.Fatalf("resubmitting a completed request allocates %.2f allocs/op, want 0", avg)
	}
}

func TestControllerRowHitFasterThanConflict(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage

	var hitLat, confLat sim.Cycle
	// Row hit: two accesses to the same row back to back.
	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	c.Submit(&Request{Addr: 0, Bytes: 64})
	c.Submit(&Request{Addr: 64, Bytes: 64, Done: func(at sim.Cycle) { hitLat = at }})
	eng.Run(nil)

	// Row conflict: second access to a different row of the same bank.
	eng2 := &sim.Engine{}
	c2 := NewController(eng2, cfg)
	conflict := memtrace.Addr(8 * 2048 * uint64(cfg.Channels))
	if c2.cfg.Decode(conflict).Bank != c2.cfg.Decode(0).Bank ||
		c2.cfg.Decode(conflict).Channel != c2.cfg.Decode(0).Channel {
		t.Fatal("test geometry wrong")
	}
	c2.Submit(&Request{Addr: 0, Bytes: 64})
	c2.Submit(&Request{Addr: conflict, Bytes: 64, Done: func(at sim.Cycle) { confLat = at }})
	eng2.Run(nil)

	if hitLat >= confLat {
		t.Fatalf("row hit (%d) not faster than conflict (%d)", hitLat, confLat)
	}
	if c.Stats.RowHits != 1 || c2.Stats.RowConflict != 1 {
		t.Fatalf("stats: hits=%d conflicts=%d", c.Stats.RowHits, c2.Stats.RowConflict)
	}
}

func TestControllerParallelBanksBeatSameBank(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = ClosePage

	finish := func(addrs []memtrace.Addr) sim.Cycle {
		eng := &sim.Engine{}
		c := NewController(eng, cfg)
		var last sim.Cycle
		for _, a := range addrs {
			c.Submit(&Request{Addr: a, Bytes: 64, Done: func(at sim.Cycle) {
				if at > last {
					last = at
				}
			}})
		}
		eng.Run(nil)
		return last
	}

	// 4 requests to 4 different banks vs 4 to the same bank.
	diff := []memtrace.Addr{0, 2048, 2 * 2048, 3 * 2048}
	same := []memtrace.Addr{0, 8 * 2048, 16 * 2048, 24 * 2048}
	if finish(diff) >= finish(same) {
		t.Fatalf("bank-parallel batch (%d) not faster than same-bank batch (%d)",
			finish(diff), finish(same))
	}
}

func TestControllerLargerTransfersOccupyBusLonger(t *testing.T) {
	cfg := StackedDDR3_3200()
	var small, big sim.Cycle
	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	c.Submit(&Request{Addr: 0, Bytes: 64, Done: func(at sim.Cycle) { small = at }})
	eng.Run(nil)
	eng2 := &sim.Engine{}
	c2 := NewController(eng2, cfg)
	c2.Submit(&Request{Addr: 0, Bytes: 2048, Done: func(at sim.Cycle) { big = at }})
	eng2.Run(nil)
	if big <= small {
		t.Fatalf("2KB transfer (%d) not slower than 64B (%d)", big, small)
	}
	if c.Stats.ReadBursts != 1 || c2.Stats.ReadBursts != 32 {
		t.Fatalf("bursts: %d, %d", c.Stats.ReadBursts, c2.Stats.ReadBursts)
	}
}

func TestControllerFRFCFSPrefersOpenRow(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage
	eng := &sim.Engine{}
	c := NewController(eng, cfg)

	sameBankOtherRow := memtrace.Addr(8 * 2048)
	var order []string
	// Saturate the bank with a first request, then queue a conflict
	// and a row hit; FR-FCFS should finish the row hit first.
	c.Submit(&Request{Addr: 0, Bytes: 64})
	c.Submit(&Request{Addr: sameBankOtherRow, Bytes: 64, Done: func(sim.Cycle) { order = append(order, "conflict") }})
	c.Submit(&Request{Addr: 128, Bytes: 64, Done: func(sim.Cycle) { order = append(order, "hit") }})
	eng.Run(nil)
	if len(order) != 2 || order[0] != "hit" {
		t.Fatalf("completion order = %v, want row hit first", order)
	}
}

func TestControllerWriteRecovery(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage
	// Read after write to the same bank pays write recovery: compare
	// against read after read.
	runPair := func(firstWrite bool) sim.Cycle {
		eng := &sim.Engine{}
		c := NewController(eng, cfg)
		var last sim.Cycle
		c.Submit(&Request{Addr: 0, Bytes: 64, Write: firstWrite})
		c.Submit(&Request{Addr: 64, Bytes: 64, Done: func(at sim.Cycle) { last = at }})
		eng.Run(nil)
		return last
	}
	if runPair(true) <= runPair(false) {
		t.Fatal("write recovery did not delay the following read")
	}
}

func TestControllerDeterminism(t *testing.T) {
	run := func() []sim.Cycle {
		cfg := StackedDDR3_3200()
		eng := &sim.Engine{}
		c := NewController(eng, cfg)
		var finishes []sim.Cycle
		for i := 0; i < 100; i++ {
			c.Submit(&Request{
				Addr: memtrace.Addr((i * 7919) % 65536 * 64), Bytes: 64, Write: i%3 == 0,
				Done: func(at sim.Cycle) { finishes = append(finishes, at) },
			})
		}
		eng.Run(nil)
		return finishes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different completion counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestControllerAvgLatencyPositive(t *testing.T) {
	cfg := OffChipDDR3_1600()
	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	for i := 0; i < 10; i++ {
		c.Submit(&Request{Addr: memtrace.Addr(i * 4096), Bytes: 64})
	}
	eng.Run(nil)
	if c.AvgLatency() <= 0 {
		t.Fatalf("avg latency = %g", c.AvgLatency())
	}
	if c.QueueDepth() != 0 {
		t.Fatalf("queue not drained: %d", c.QueueDepth())
	}
}

func TestConfigValidateWriteDrain(t *testing.T) {
	bad := OffChipDDR3_1600()
	bad.WriteDrainHigh = 8
	bad.WriteDrainLow = 16
	if bad.Validate() == nil {
		t.Fatal("low >= high accepted")
	}
	bad = OffChipDDR3_1600()
	bad.WriteQueueDepth = 4
	bad.WriteDrainHigh = 8
	if bad.Validate() == nil {
		t.Fatal("high > depth accepted")
	}
	// An explicit low contradicting the *defaulted* high (24) must be
	// rejected too, not silently clamped.
	bad = OffChipDDR3_1600()
	bad.WriteDrainLow = 30
	if bad.Validate() == nil {
		t.Fatal("low above defaulted high accepted")
	}
	good := OffChipDDR3_1600()
	good.WriteQueueDepth = 16
	good.WriteDrainHigh = 12
	good.WriteDrainLow = 4
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRefreshInterval(t *testing.T) {
	// tREFI <= tRFC + tRP would livelock the scheduler (refresh
	// re-triggers before the banks unblock); Validate must reject it.
	bad := OffChipDDR3_1600()
	bad.Timing.TREFI = 100
	bad.Timing.TRFC = 208
	if bad.Validate() == nil {
		t.Fatal("tREFI <= tRFC accepted")
	}
	bad = OffChipDDR3_1600()
	bad.Timing.TREFI = 215 // tRFC 208 + tRP 11 > 215
	if bad.Validate() == nil {
		t.Fatal("tREFI <= tRFC + tRP accepted")
	}
	// Disabled refresh is exempt.
	off := OffChipDDR3_1600()
	off.Timing.TREFI = 0
	off.Timing.TRFC = 208
	if err := off.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteThresholdsTinyDepth(t *testing.T) {
	// WriteQueueDepth 1 must not resolve to a zero high threshold
	// (which would latch the channel into drain mode and invert read
	// priority).
	cfg := OffChipDDR3_1600()
	cfg.WriteQueueDepth = 1
	high, low := cfg.writeThresholds()
	if high < 1 {
		t.Fatalf("high = %d, want >= 1", high)
	}
	if low >= high {
		t.Fatalf("low %d not below high %d", low, high)
	}
}
