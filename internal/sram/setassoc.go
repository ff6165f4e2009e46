// Package sram models on-chip SRAM structures: a generic
// set-associative container with LRU replacement, and conventional
// L1/L2 caches built on it.
//
// The same container backs every SRAM structure in the paper's
// designs: the Footprint Cache tag array, the Footprint History Table,
// the Singleton Table, and the block-based design's MissMap — they are
// all set-associative SRAM arrays that differ only in their payloads.
package sram

import "fmt"

// Entry is one way of a set, pairing a tag with a caller-defined
// payload. Field order keeps the small flags after the payload, so a
// one-byte payload packs the entry into 24 bytes (the block design's
// multi-megabyte tag arrays are built from these).
type Entry[V any] struct {
	Tag   uint64
	used  uint64 // LRU timestamp; larger = more recent
	Value V
	valid bool
	way   uint32
}

// Valid reports whether the entry currently holds data.
func (e *Entry[V]) Valid() bool { return e.valid }

// Way returns the entry's way index within its set. Set/way pairs
// directly determine DRAM cache frame addresses (paper §4.1).
func (e *Entry[V]) Way() int { return int(e.way) }

// SetAssoc is a set-associative array with true-LRU replacement.
// Lookups and fills address a (set, tag) pair; the caller owns the
// set-index and tag computation so the container can back structures
// with different indexing schemes (physical address, PC-hash, ...).
type SetAssoc[V any] struct {
	sets  int
	ways  int
	data  []Entry[V] // sets*ways, row-major
	clock uint64

	// Stats
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// NewSetAssoc builds a container with the given geometry. Both
// dimensions must be positive.
func NewSetAssoc[V any](sets, ways int) *SetAssoc[V] {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("sram: invalid geometry %dx%d", sets, ways))
	}
	c := &SetAssoc[V]{sets: sets, ways: ways, data: make([]Entry[V], sets*ways)}
	for i := range c.data {
		c.data[i].way = uint32(i % ways)
	}
	return c
}

// Sets returns the number of sets.
func (c *SetAssoc[V]) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc[V]) Ways() int { return c.ways }

func (c *SetAssoc[V]) set(idx int) []Entry[V] {
	if idx < 0 || idx >= c.sets {
		panic(fmt.Sprintf("sram: set index %d out of range [0,%d)", idx, c.sets))
	}
	return c.data[idx*c.ways : (idx+1)*c.ways]
}

// Lookup finds the entry with the given tag in the given set, touching
// its LRU state on hit. It returns nil on miss.
func (c *SetAssoc[V]) Lookup(set int, tag uint64) *Entry[V] {
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].Tag == tag {
			c.clock++
			ways[i].used = c.clock
			c.Hits++
			return &ways[i]
		}
	}
	c.Misses++
	return nil
}

// Peek finds the entry without touching LRU state or stats.
func (c *SetAssoc[V]) Peek(set int, tag uint64) *Entry[V] {
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].Tag == tag {
			return &ways[i]
		}
	}
	return nil
}

// Victim returns the entry that Insert would replace in the set: an
// invalid way if one exists, else the LRU way. The returned entry is
// live storage; callers may inspect it (e.g., for dirty writeback)
// and then fill it with Replace.
func (c *SetAssoc[V]) Victim(set int) *Entry[V] {
	ways := c.set(set)
	var lru *Entry[V]
	for i := range ways {
		if !ways[i].valid {
			return &ways[i]
		}
		if lru == nil || ways[i].used < lru.used {
			lru = &ways[i]
		}
	}
	return lru
}

// Insert places (tag, value) in the set, evicting the LRU way if the
// set is full. It returns the displaced entry's previous contents and
// whether a valid entry was evicted.
func (c *SetAssoc[V]) Insert(set int, tag uint64, value V) (old Entry[V], evicted bool) {
	return c.Replace(c.Victim(set), tag, value)
}

// Replace fills v, an entry Victim returned, with (tag, value) as the
// most recently used way, without scanning the set again. Nothing may
// touch v's set between the Victim call and Replace, or v may no
// longer be the way Insert would pick. It returns the entry's previous
// contents and whether a valid entry was evicted.
func (c *SetAssoc[V]) Replace(v *Entry[V], tag uint64, value V) (old Entry[V], evicted bool) {
	old = *v
	evicted = v.valid
	if evicted {
		c.Evictions++
	}
	c.clock++
	*v = Entry[V]{Tag: tag, Value: value, valid: true, way: v.way, used: c.clock}
	return old, evicted
}

// Invalidate removes the entry with the given tag from the set,
// returning its previous contents and whether it existed.
func (c *SetAssoc[V]) Invalidate(set int, tag uint64) (old Entry[V], ok bool) {
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].Tag == tag {
			old = ways[i]
			ways[i] = Entry[V]{way: ways[i].way}
			return old, true
		}
	}
	return Entry[V]{}, false
}

// Slot returns the entry at an explicit (set, way) position without
// touching LRU state or stats. It is the mechanism behind structures
// that store pointers to entries (the Footprint Cache tag array keeps
// FHT slot pointers, paper §4.2). Returns nil if out of range.
func (c *SetAssoc[V]) Slot(set, way int) *Entry[V] {
	if set < 0 || set >= c.sets || way < 0 || way >= c.ways {
		return nil
	}
	return &c.data[set*c.ways+way]
}

// Range calls fn for every valid entry. Mutating payloads through the
// pointer is allowed; inserting or invalidating during Range is not.
func (c *SetAssoc[V]) Range(fn func(set int, e *Entry[V])) {
	for s := 0; s < c.sets; s++ {
		ways := c.set(s)
		for i := range ways {
			if ways[i].valid {
				fn(s, &ways[i])
			}
		}
	}
}

// Occupancy returns the number of valid entries.
func (c *SetAssoc[V]) Occupancy() int {
	n := 0
	for i := range c.data {
		if c.data[i].valid {
			n++
		}
	}
	return n
}

// Flush invalidates every entry, calling fn (if non-nil) for each
// valid entry first.
func (c *SetAssoc[V]) Flush(fn func(set int, e *Entry[V])) {
	for s := 0; s < c.sets; s++ {
		ways := c.set(s)
		for i := range ways {
			if ways[i].valid {
				if fn != nil {
					fn(s, &ways[i])
				}
				ways[i] = Entry[V]{way: ways[i].way}
			}
		}
	}
}
