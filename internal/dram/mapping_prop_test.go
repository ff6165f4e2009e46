package dram

import (
	"bytes"
	"math/rand"
	"testing"

	"fpcache/internal/memtrace"
	"fpcache/internal/snap"
)

// divisionDecode is the address mapping written with plain division,
// the reference the shift-and-mask decoder must reproduce.
func divisionDecode(c Config, addr memtrace.Addr) Location {
	a := uint64(addr)
	chunk := a / uint64(c.InterleaveBytes)
	ch := int(chunk % uint64(c.Channels))
	inChan := (chunk/uint64(c.Channels))*uint64(c.InterleaveBytes) + a%uint64(c.InterleaveBytes)
	rowIdx := inChan / uint64(c.RowBytes)
	return Location{
		Channel: ch,
		Bank:    int(rowIdx % uint64(c.BanksPerChan)),
		Row:     int64(rowIdx / uint64(c.BanksPerChan)),
	}
}

// mappingConfigs is both stock configurations crossed with 64B and
// 2KB interleaving and with power-of-two and other channel and bank
// counts, under the given row policy.
func mappingConfigs(policy RowPolicy) []Config {
	var out []Config
	for _, base := range []Config{OffChipDDR3_1600(), StackedDDR3_3200()} {
		for _, ilv := range []int{64, 2048} {
			for _, chans := range []int{base.Channels, 3} {
				for _, banks := range []int{base.BanksPerChan, 6} {
					c := base
					c.InterleaveBytes, c.Channels, c.BanksPerChan, c.Policy = ilv, chans, banks, policy
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// Property: the precomputed decoder and Config.Decode agree with the
// division formula on every address, aligned or not, across the whole
// 64-bit space.
func TestPropertyDecoderMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range mappingConfigs(OpenPage) {
		d := newDecoder(&cfg)
		for i := 0; i < 20000; i++ {
			addr := memtrace.Addr(rng.Uint64())
			if i%2 == 0 {
				addr >>= rng.Intn(64)
			}
			want := divisionDecode(cfg, addr)
			if got := d.decode(addr); got != want {
				t.Fatalf("%s %dch x %dbank ilv %d: decode(%#x) = %+v, want %+v",
					cfg.Name, cfg.Channels, cfg.BanksPerChan, cfg.InterleaveBytes, addr, got, want)
			}
			if got := cfg.Decode(addr); got != want {
				t.Fatalf("%s: Config.Decode(%#x) = %+v, want %+v", cfg.Name, addr, got, want)
			}
		}
	}
}

// blockReplay accounts a transfer one 64B block at a time through the
// division formula: the per-block model that row-run accounting must
// reproduce exactly.
func blockReplay(t *Tracker, addr memtrace.Addr, n int, write bool) {
	for off := 0; off < n; off += 64 {
		loc := divisionDecode(t.cfg, addr+memtrace.Addr(off))
		open := &t.openRows[loc.Channel][loc.Bank]
		switch {
		case *open == loc.Row:
			t.Stats.RowHits++
		case *open < 0:
			t.Stats.RowMisses++
			t.Stats.Activates++
		default:
			t.Stats.RowConflict++
			t.Stats.Activates++
		}
		if t.cfg.Policy == ClosePage {
			*open = -1
		} else {
			*open = loc.Row
		}
		if write {
			t.Stats.WriteBursts++
		} else {
			t.Stats.ReadBursts++
		}
	}
}

func trackerBytes(t *testing.T, tr *Tracker) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	tr.Save(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Property: Tracker.Access, which accounts each (channel, bank, row)
// run at once, leaves the same Stats and the same snapshot bytes as a
// per-block replay, for unaligned starts and transfers crossing chunk
// and row boundaries, under both row policies.
func TestPropertyTrackerRunsMatchBlockReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sizes := []int{0, 1, 64, 100, 2048, 4096}
	for _, policy := range []RowPolicy{OpenPage, ClosePage} {
		for _, cfg := range mappingConfigs(policy) {
			for trial := 0; trial < 20; trial++ {
				got, want := NewTracker(cfg), NewTracker(cfg)
				for i := 0; i < 200; i++ {
					// A small address space, so rows are revisited and
					// hits, misses and conflicts all occur.
					addr := memtrace.Addr(rng.Intn(1 << 18))
					if rng.Intn(2) == 0 {
						addr &^= 63
					}
					n := sizes[rng.Intn(len(sizes))]
					if rng.Intn(3) == 0 {
						n = rng.Intn(8192)
					}
					write := rng.Intn(3) == 0
					got.Access(addr, n, write)
					blockReplay(want, addr, n, write)
				}
				if got.Stats != want.Stats {
					t.Fatalf("%s %v %dch x %dbank ilv %d: run stats %+v, block stats %+v",
						cfg.Name, policy, cfg.Channels, cfg.BanksPerChan, cfg.InterleaveBytes, got.Stats, want.Stats)
				}
				if !bytes.Equal(trackerBytes(t, got), trackerBytes(t, want)) {
					t.Fatalf("%s %v %dch x %dbank ilv %d: snapshot bytes differ",
						cfg.Name, policy, cfg.Channels, cfg.BanksPerChan, cfg.InterleaveBytes)
				}
			}
		}
	}
}
