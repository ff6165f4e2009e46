package sram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLookupMissThenInsertHit(t *testing.T) {
	c := NewSetAssoc[int](4, 2)
	if c.Lookup(0, 7) != nil {
		t.Fatal("empty cache hit")
	}
	c.Insert(0, 7, 42)
	e := c.Lookup(0, 7)
	if e == nil || e.Value != 42 {
		t.Fatal("inserted entry not found")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewSetAssoc[string](1, 2)
	c.Insert(0, 1, "a")
	c.Insert(0, 2, "b")
	c.Lookup(0, 1) // touch a; b becomes LRU
	old, evicted := c.Insert(0, 3, "c")
	if !evicted || old.Tag != 2 {
		t.Fatalf("evicted tag %d, want 2 (LRU)", old.Tag)
	}
	if c.Lookup(0, 1) == nil || c.Lookup(0, 3) == nil {
		t.Fatal("survivors missing")
	}
	if c.Lookup(0, 2) != nil {
		t.Fatal("evicted entry still present")
	}
}

func TestInsertPrefersInvalidWay(t *testing.T) {
	c := NewSetAssoc[int](1, 4)
	c.Insert(0, 1, 0)
	if _, evicted := c.Insert(0, 2, 0); evicted {
		t.Fatal("evicted with free ways available")
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := NewSetAssoc[int](1, 2)
	c.Insert(0, 1, 0)
	c.Insert(0, 2, 0)
	c.Peek(0, 1) // must not refresh tag 1
	old, _ := c.Insert(0, 3, 0)
	if old.Tag != 1 {
		t.Fatalf("Peek touched LRU: evicted %d, want 1", old.Tag)
	}
	h, m := c.Hits, c.Misses
	c.Peek(0, 3)
	if c.Hits != h || c.Misses != m {
		t.Fatal("Peek changed stats")
	}
}

func TestInvalidate(t *testing.T) {
	c := NewSetAssoc[int](2, 2)
	c.Insert(1, 5, 99)
	old, ok := c.Invalidate(1, 5)
	if !ok || old.Value != 99 {
		t.Fatal("Invalidate lost value")
	}
	if _, ok := c.Invalidate(1, 5); ok {
		t.Fatal("double invalidate succeeded")
	}
	if c.Peek(1, 5) != nil {
		t.Fatal("invalidated entry still present")
	}
}

func TestWayStableAcrossOperations(t *testing.T) {
	c := NewSetAssoc[int](1, 4)
	c.Insert(0, 1, 0)
	c.Insert(0, 2, 0)
	e := c.Peek(0, 2)
	w := e.Way()
	c.Invalidate(0, 2)
	c.Insert(0, 9, 0) // reuses the invalidated way
	if got := c.Peek(0, 9).Way(); got != w {
		t.Fatalf("way changed %d -> %d after invalidate+insert", w, got)
	}
	ways := map[int]bool{}
	for _, tag := range []uint64{1, 9} {
		ways[c.Peek(0, tag).Way()] = true
	}
	if len(ways) != 2 {
		t.Fatal("two entries share a way")
	}
}

func TestSlotAddressing(t *testing.T) {
	c := NewSetAssoc[int](2, 3)
	c.Insert(1, 7, 77)
	e := c.Peek(1, 7)
	s := c.Slot(1, e.Way())
	if s != e {
		t.Fatal("Slot returned a different entry")
	}
	if c.Slot(5, 0) != nil || c.Slot(0, 9) != nil || c.Slot(-1, 0) != nil {
		t.Fatal("out-of-range Slot not nil")
	}
}

func TestVictimMatchesInsert(t *testing.T) {
	c := NewSetAssoc[int](1, 3)
	for tag := uint64(0); tag < 3; tag++ {
		c.Insert(0, tag, int(tag))
	}
	predicted := c.Victim(0).Tag // copy: Victim returns live storage
	old, evicted := c.Insert(0, 99, 0)
	if !evicted || old.Tag != predicted {
		t.Fatalf("Victim predicted %d, Insert evicted %d", predicted, old.Tag)
	}
	// Replace fills exactly the way Victim chose.
	v := c.Victim(0)
	way, predicted := v.Way(), v.Tag
	old, evicted = c.Replace(v, 100, 1)
	if !evicted || old.Tag != predicted || c.Peek(0, 100).Way() != way || c.Evictions != 2 {
		t.Fatalf("Replace evicted %d (want %d), filled way %d (want %d), %d evictions",
			old.Tag, predicted, c.Peek(0, 100).Way(), way, c.Evictions)
	}
}

func TestOccupancyAndFlush(t *testing.T) {
	c := NewSetAssoc[int](4, 2)
	for i := 0; i < 5; i++ {
		c.Insert(i%4, uint64(i), i)
	}
	if c.Occupancy() != 5 {
		t.Fatalf("occupancy = %d, want 5", c.Occupancy())
	}
	seen := 0
	c.Flush(func(set int, e *Entry[int]) { seen++ })
	if seen != 5 || c.Occupancy() != 0 {
		t.Fatalf("flush saw %d, left %d", seen, c.Occupancy())
	}
}

func TestRangeVisitsAllValid(t *testing.T) {
	c := NewSetAssoc[int](4, 4)
	want := map[uint64]bool{}
	for i := 0; i < 9; i++ {
		c.Insert(i%4, uint64(100+i), i)
		want[uint64(100+i)] = true
	}
	got := map[uint64]bool{}
	c.Range(func(set int, e *Entry[int]) { got[e.Tag] = true })
	if len(got) != len(want) {
		t.Fatalf("Range visited %d, want %d", len(got), len(want))
	}
}

func TestGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("geometry %v did not panic", g)
				}
			}()
			NewSetAssoc[int](g[0], g[1])
		}()
	}
}

// Property: the container agrees with a reference map model under
// random Lookup/Insert/Invalidate sequences within one set.
func TestPropertyMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const ways = 4
		c := NewSetAssoc[int](1, ways)
		ref := map[uint64]int{} // tag -> value for entries that must be present
		// Track reference LRU order.
		var order []uint64
		touch := func(tag uint64) {
			for i, tg := range order {
				if tg == tag {
					order = append(append(order[:i:i], order[i+1:]...), tag)
					return
				}
			}
			order = append(order, tag)
		}
		for step := 0; step < 200; step++ {
			tag := uint64(rng.Intn(8))
			switch rng.Intn(3) {
			case 0: // lookup
				e := c.Lookup(0, tag)
				_, want := ref[tag]
				if (e != nil) != want {
					return false
				}
				if want {
					touch(tag)
				}
			case 1: // insert
				if _, present := ref[tag]; present {
					continue
				}
				c.Insert(0, tag, step)
				if len(ref) == ways {
					lru := order[0]
					order = order[1:]
					delete(ref, lru)
				}
				ref[tag] = step
				touch(tag)
			case 2: // invalidate
				_, present := ref[tag]
				_, ok := c.Invalidate(0, tag)
				if ok != present {
					return false
				}
				if present {
					delete(ref, tag)
					for i, tg := range order {
						if tg == tag {
							order = append(order[:i], order[i+1:]...)
							break
						}
					}
				}
			}
		}
		if c.Occupancy() != len(ref) {
			return false
		}
		for tag := range ref {
			if c.Peek(0, tag) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
