// Package cache models the on-chip cache hierarchy of Table III: per-core
// L1 and inclusive L2, a shared exclusive L3, plus the simple next-line and
// stride prefetchers the paper simulates. Caches here are tag stores with
// LRU replacement — the simulator composes their hit/miss outcomes with the
// fixed hit latencies from Table III; data values live elsewhere (the
// simulation is execution-driven for addresses, functional for contents).
package cache

import (
	"fmt"

	"tmcc/internal/config"
)

// Cache is a set-associative LRU tag store over 64B block numbers. The
// set count is a power of two (see Check), so a block's set is its low
// bits. Tags stay contiguous per set: a 16-way set's tags span two host
// cache lines, which is what a lookup scans.
type Cache struct {
	mask  uint64 // sets-1
	ways  int
	tags  []uint64 // +1 encoding, 0 = invalid
	stamp []uint64
	flags []uint8
	clock uint64

	Hits   uint64
	Misses uint64
}

// Line flags.
const (
	FlagDirty uint8 = 1 << iota
	// FlagCompressedPTB is TMCC's per-line "new data bit" (Section V-A4):
	// the line holds a hardware-compressed PTB with embedded CTEs.
	FlagCompressedPTB
)

// geometry derives the line, set and way counts New builds for a cache of
// sizeBytes with the requested associativity (a cache smaller than one set
// becomes a single fully-associative set).
func geometry(sizeBytes, ways int) (lines, sets, w int) {
	lines = sizeBytes / config.BlockSize
	if lines < ways {
		ways = lines
	}
	if ways <= 0 {
		return lines, 0, ways
	}
	return lines, lines / ways, ways
}

// Check reports whether New can build a cache of sizeBytes with the given
// ways: the set count must be a positive power of two. The error is a
// *config.GeometryError naming the structure as name.
func Check(name string, sizeBytes, ways int) error {
	_, sets, _ := geometry(sizeBytes, ways)
	return config.PowerOfTwo(name+" sets", sets)
}

// New builds a cache of the given total size in bytes with 64B lines. It
// panics on a geometry Check rejects; simulator construction checks first
// and returns the error instead.
func New(sizeBytes, ways int) *Cache {
	if err := Check("cache", sizeBytes, ways); err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	lines, sets, ways := geometry(sizeBytes, ways)
	return &Cache{
		mask:  uint64(sets - 1),
		ways:  ways,
		tags:  make([]uint64, lines),
		stamp: make([]uint64, lines),
		flags: make([]uint8, lines),
	}
}

// find returns the lowest way holding block, or -1. An exclusive L3 set
// can hold one block twice (two cores' private L2s may each evict it), so
// "lowest" is part of the contract.
func (c *Cache) find(block uint64) int {
	base := int(block&c.mask) * c.ways
	tag := block + 1
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return base + w
		}
	}
	return -1
}

// Lookup probes for block like Access and returns the hit line's index
// (for FlagsAt/SetFlagsAt/InvalidateAt), or -1 on a miss. An index stays
// valid until the next Insert or Invalidate on this cache.
func (c *Cache) Lookup(block uint64) int {
	c.clock++
	i := c.find(block)
	if i >= 0 {
		c.stamp[i] = c.clock
		c.Hits++
		return i
	}
	c.Misses++
	return -1
}

// Access probes for block; on hit it refreshes recency and returns true.
func (c *Cache) Access(block uint64) bool { return c.Lookup(block) >= 0 }

// Probe checks presence without touching recency or counters.
func (c *Cache) Probe(block uint64) bool { return c.find(block) >= 0 }

// FlagsAt returns the flags of the line at index i (from Lookup).
func (c *Cache) FlagsAt(i int) uint8 { return c.flags[i] }

// SetFlagsAt overwrites the flags of the line at index i.
func (c *Cache) SetFlagsAt(i int, f uint8) { c.flags[i] = f }

// InvalidateAt removes the line at index i, returning its flags.
func (c *Cache) InvalidateAt(i int) uint8 {
	f := c.flags[i]
	c.tags[i] = 0
	c.flags[i] = 0
	return f
}

// OrFlags sets bits on a present line.
func (c *Cache) OrFlags(block uint64, f uint8) {
	if i := c.find(block); i >= 0 {
		c.flags[i] |= f
	}
}

// Victim describes an evicted line.
type Victim struct {
	Block uint64
	Flags uint8
	Valid bool
}

// Insert fills block (with flags) and returns the victim, if a valid line
// was displaced. The victim way is the set's first invalid way, else its
// least recently used one; a present block is not looked up first (see
// find on duplicates).
func (c *Cache) Insert(block uint64, flags uint8) Victim {
	base := int(block&c.mask) * c.ways
	tags := c.tags[base : base+c.ways]
	stamps := c.stamp[base : base+c.ways]
	v := 0
	for w, t := range tags {
		if t == 0 {
			v = w
			break
		}
		if stamps[w] < stamps[v] {
			v = w
		}
	}
	var out Victim
	if t := tags[v]; t != 0 && t != block+1 {
		out = Victim{Block: t - 1, Flags: c.flags[base+v], Valid: true}
	}
	c.clock++
	tags[v] = block + 1
	stamps[v] = c.clock
	c.flags[base+v] = flags
	return out
}

// Lines returns capacity in 64B lines.
func (c *Cache) Lines() int { return int(c.mask+1) * c.ways }
