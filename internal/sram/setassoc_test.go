package sram

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"fpcache/internal/snap"
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

// TestWaysAfterRandomOps checks that ways are stamped where entries
// are handed out rather than at construction: after random Insert,
// Lookup, Invalidate, Flush and Save→Load sequences, every entry
// reached through Lookup, Peek, Victim, Slot or Range reports the way
// it sits in.
func TestWaysAfterRandomOps(t *testing.T) {
	const sets, ways = 8, 5
	rng := rand.New(rand.NewSource(7))
	c := NewSetAssoc[int](sets, ways)
	// wayOf locates e in the backing array directly: Slot would stamp
	// the entries it passes.
	wayOf := func(set int, e *Entry[int]) int {
		i := 0
		for ; i < ways && &c.data[set*ways+i] != e; i++ {
		}
		return i
	}
	check := func(step int, via string, set int, e *Entry[int]) {
		t.Helper()
		if e == nil {
			return
		}
		if w := wayOf(set, e); e.Way() != w {
			t.Fatalf("step %d: %s entry of set %d sits in way %d, reports %d", step, via, set, w, e.Way())
		}
	}
	fresh := NewSetAssoc[int](sets, ways)
	for set := 0; set < sets; set++ {
		for w := 0; w < ways; w++ {
			if got := fresh.Slot(set, w).Way(); got != w {
				t.Fatalf("fresh Slot(%d, %d) reports way %d", set, w, got)
			}
		}
	}
	for step := 0; step < 20_000; step++ {
		set, tag := rng.Intn(sets), uint64(rng.Intn(3*ways))
		switch op := rng.Intn(100); {
		case op < 40:
			c.Insert(set, tag, int(tag))
		case op < 60:
			check(step, "Lookup", set, c.Lookup(set, tag))
		case op < 70:
			check(step, "Peek", set, c.Peek(set, tag))
		case op < 85:
			c.Invalidate(set, tag)
		case op < 90:
			check(step, "Victim", set, c.Victim(set))
		case op < 95:
			w := rng.Intn(ways)
			if e := c.Slot(set, w); e.Way() != w {
				t.Fatalf("step %d: Slot(%d, %d) reports way %d", step, set, w, e.Way())
			}
		case op < 97:
			c.Flush(nil)
		default:
			var buf bytes.Buffer
			w := snap.NewWriter(&buf)
			c.Save(w, func(w *snap.Writer, v *int) { w.U64(uint64(*v)) })
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			c = NewSetAssoc[int](sets, ways)
			if err := c.Load(snap.NewReader(&buf), func(r *snap.Reader, v *int) { *v = int(r.U64()) }); err != nil {
				t.Fatal(err)
			}
		}
		c.Range(func(set int, e *Entry[int]) { check(step, "Range", set, e) })
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
