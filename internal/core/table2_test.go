package core

import (
	"testing"
	"testing/quick"
)

// These tests pin the reference model's block state (refmodel_test.go)
// to the paper's Table 2 encoding. TestReferenceModelMatchesEngine
// then checks the encoding against the engine's three-vector PageMeta.

func TestTable2Encoding(t *testing.T) {
	// The paper's Table 2, verbatim.
	cases := []struct {
		state    blockState
		present  bool
		demanded bool
		dirty    bool
		name     string
	}{
		{notPresent, false, false, false, "not-present"},
		{cleanPrefetched, true, false, false, "clean-prefetched"},
		{cleanDemanded, true, true, false, "clean-demanded"},
		{dirtyDemanded, true, true, true, "dirty-demanded"},
	}
	for _, c := range cases {
		if c.state.present() != c.present || c.state.demanded() != c.demanded || c.state.dirty() != c.dirty {
			t.Fatalf("%v: present=%v demanded=%v dirty=%v", c.state, c.state.present(), c.state.demanded(), c.state.dirty())
		}
		if c.state.String() != c.name {
			t.Fatalf("String() = %q, want %q", c.state.String(), c.name)
		}
	}
	// A block can never be dirty without being demanded — the
	// property the encoding exploits (§4.3).
	for s := blockState(0); s < 4; s++ {
		if s.dirty() && !s.demanded() {
			t.Fatalf("state %v dirty but not demanded", s)
		}
	}
}

func TestTable2StateRoundtrip(t *testing.T) {
	var p pageVectors
	for i := 0; i < 64; i++ {
		for _, s := range []blockState{cleanPrefetched, cleanDemanded, dirtyDemanded, notPresent} {
			p.setState(i, s)
			if got := p.state(i); got != s {
				t.Fatalf("block %d: set %v, got %v", i, s, got)
			}
		}
	}
}

func TestFillMarksCleanPrefetched(t *testing.T) {
	var p pageVectors
	p.fill(0b1011)
	for _, i := range []int{0, 1, 3} {
		if p.state(i) != cleanPrefetched {
			t.Fatalf("block %d = %v", i, p.state(i))
		}
	}
	if p.state(2) != notPresent {
		t.Fatal("unfilled block present")
	}
}

func TestFillDoesNotDowngradeDemanded(t *testing.T) {
	var p pageVectors
	p.fill(1)
	p.demand(0, true)
	p.fill(1) // refill must not clear the dirty-demanded state
	if p.state(0) != dirtyDemanded {
		t.Fatalf("refill downgraded state to %v", p.state(0))
	}
}

func TestDemandTransitions(t *testing.T) {
	var p pageVectors
	p.fill(0b111)
	p.demand(0, false)
	if p.state(0) != cleanDemanded {
		t.Fatalf("read demand: %v", p.state(0))
	}
	p.demand(1, true)
	if p.state(1) != dirtyDemanded {
		t.Fatalf("write demand: %v", p.state(1))
	}
	p.demand(0, true) // read-then-write upgrades
	if p.state(0) != dirtyDemanded {
		t.Fatalf("upgrade: %v", p.state(0))
	}
	p.demand(1, false) // write-then-read stays dirty
	if p.state(1) != dirtyDemanded {
		t.Fatalf("dirty read downgraded: %v", p.state(1))
	}
}

func TestDemandPanicsOnAbsentBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Demand on absent block did not panic")
		}
	}()
	var p pageVectors
	p.demand(5, false)
}

func TestMaskAccessors(t *testing.T) {
	var p pageVectors
	p.fill(0b11110)
	p.demand(1, false)
	p.demand(2, true)
	if p.presentMask() != 0b11110 {
		t.Fatalf("present = %b", p.presentMask())
	}
	if p.demandedMask() != 0b00110 {
		t.Fatalf("demanded = %b", p.demandedMask())
	}
	if p.dirtyMask() != 0b00100 {
		t.Fatalf("dirty = %b", p.dirtyMask())
	}
}

// Property: under any sequence of fills and demands,
// dirty ⊆ demanded ⊆ present (the Table 2 invariant chain).
func TestPropertyStateInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		var p pageVectors
		for _, op := range ops {
			block := int(op % 64)
			switch (op >> 6) % 3 {
			case 0:
				p.fill(1 << block)
			case 1, 2:
				if p.state(block).present() {
					p.demand(block, (op>>8)%2 == 0)
				}
			}
			d, dm, pr := p.dirtyMask(), p.demandedMask(), p.presentMask()
			if d&^dm != 0 || dm&^pr != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
