package control

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fuzzConfig derives a controller config from a fuzz seed. The raw
// fields are hostile on purpose (huge, negative, unordered);
// withDefaults must make every one of them usable.
func fuzzConfig(seed uint64) Config {
	return Config{
		EpochRefs:       int(int32(seed)),
		Window:          int(int8(seed >> 8)),
		Deadband:        float64(int8(seed>>16)) / 100,
		CooldownEpochs:  int(int8(seed >> 24)),
		Step:            float64(int8(seed>>32)) / 16,
		MinFraction:     float64(int8(seed>>40)) / 64,
		MaxFraction:     float64(int8(seed>>48)) / 64,
		InitialFraction: float64(int8(seed>>56)) / 64,
		HoldEpochs:      int(int8(seed >> 4)),
		BandwidthWeight: float64(int8(seed>>20)) / 10,
	}
}

// fuzzSamples expands fuzz bytes into a cumulative telemetry sequence:
// each 4-byte chunk is one epoch's deltas, spanning idle epochs, 100%
// and 0% hit epochs, and counter magnitudes up to 2^24 per epoch.
func fuzzSamples(data []byte) []Sample {
	out := make([]Sample, 0, len(data)/4)
	var s Sample
	for len(data) >= 4 {
		v := binary.LittleEndian.Uint32(data[:4])
		data = data[4:]
		acc := uint64(v & 0xffff)
		hits := uint64(v>>16) % (acc + 1)
		s.Refs += uint64(v%3) << uint(v%24)
		s.Accesses += acc << uint(v%9)
		s.Hits += hits << uint(v%9)
		s.MemHits += hits / 2
		s.OffChipBytes += (acc - hits) * 64
		out = append(out, s)
	}
	return out
}

// FuzzControllerDecide drives a controller built from an arbitrary
// config with an arbitrary telemetry sequence and checks the safety
// contract on every output: the fraction stays finite and inside the
// normalized bounds, fire implies the fraction actually changed, the
// controller never fires again within its cooldown, and the whole
// sequence is a pure function of the input (a replay is identical).
func FuzzControllerDecide(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(0x0101010101010101), []byte("some telemetry bytes here..."))
	f.Add(uint64(1)<<63|12345, bytes.Repeat([]byte{0xff, 0x00, 0x40, 0x99}, 40))
	f.Add(uint64(0x8040201008040201), bytes.Repeat([]byte{1, 2, 3, 4, 250, 251, 252, 253}, 64))

	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		cfg := fuzzConfig(seed)
		samples := fuzzSamples(data)
		c := NewController(cfg)
		n := c.Config()

		replay := NewController(cfg)
		sinceFire := n.CooldownEpochs // no fire yet: cooldown satisfied
		prev := c.Fraction()
		for i, s := range samples {
			frac, fire := c.Observe(s)
			if rf, rfire := replay.Observe(s); rf != frac || rfire != fire {
				t.Fatalf("sample %d: replay diverges (%v,%v) vs (%v,%v)", i, rf, rfire, frac, fire)
			}
			if math.IsNaN(frac) || frac < n.MinFraction || frac > n.MaxFraction {
				t.Fatalf("sample %d: fraction %v outside [%v,%v]", i, frac, n.MinFraction, n.MaxFraction)
			}
			if fire {
				if frac == prev {
					t.Fatalf("sample %d: fired without changing the fraction (%v)", i, frac)
				}
				if sinceFire < n.CooldownEpochs {
					t.Fatalf("sample %d: fired %d samples after the last move, inside cooldown %d",
						i, sinceFire, n.CooldownEpochs)
				}
				sinceFire = 0
			} else {
				sinceFire++
			}
			if frac != c.Fraction() {
				t.Fatalf("sample %d: returned fraction %v != Fraction() %v", i, frac, c.Fraction())
			}
			prev = frac
		}
		if c.Moves() > c.Epochs() {
			t.Fatalf("%d moves exceed %d scored epochs", c.Moves(), c.Epochs())
		}
	})
}
