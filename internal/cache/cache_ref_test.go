package cache

import (
	"math/rand"
	"testing"
)

// refCache is the modulo-indexed, block-keyed tag store the mask-indexed
// Cache replaced, kept as the reference model. Every flag operation and
// the exclusive-L3 promotion rescan the set.
type refCache struct {
	sets  int
	ways  int
	tags  []uint64
	stamp []uint64
	flags []uint8
	clock uint64

	Hits, Misses uint64
}

func newRefCache(sizeBytes, ways int) *refCache {
	lines := sizeBytes / 64
	if lines < ways {
		ways = lines
	}
	return &refCache{
		sets:  lines / ways,
		ways:  ways,
		tags:  make([]uint64, lines),
		stamp: make([]uint64, lines),
		flags: make([]uint8, lines),
	}
}

func (c *refCache) find(block uint64) int {
	base := int(block%uint64(c.sets)) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == block+1 {
			return base + w
		}
	}
	return -1
}

func (c *refCache) Access(block uint64) bool {
	c.clock++
	if i := c.find(block); i >= 0 {
		c.stamp[i] = c.clock
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

func (c *refCache) Flags(block uint64) (uint8, bool) {
	if i := c.find(block); i >= 0 {
		return c.flags[i], true
	}
	return 0, false
}

func (c *refCache) SetFlags(block uint64, f uint8) {
	if i := c.find(block); i >= 0 {
		c.flags[i] = f
	}
}

func (c *refCache) OrFlags(block uint64, f uint8) {
	if i := c.find(block); i >= 0 {
		c.flags[i] |= f
	}
}

func (c *refCache) Insert(block uint64, flags uint8) Victim {
	base := int(block%uint64(c.sets)) * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			victim = base + w
			break
		}
		if c.stamp[base+w] < c.stamp[victim] {
			victim = base + w
		}
	}
	var out Victim
	if c.tags[victim] != 0 && c.tags[victim] != block+1 {
		out = Victim{Block: c.tags[victim] - 1, Flags: c.flags[victim], Valid: true}
	}
	c.clock++
	c.tags[victim] = block + 1
	c.stamp[victim] = c.clock
	c.flags[victim] = flags
	return out
}

func (c *refCache) Invalidate(block uint64) (uint8, bool) {
	if i := c.find(block); i >= 0 {
		f := c.flags[i]
		c.tags[i] = 0
		c.flags[i] = 0
		return f, true
	}
	return 0, false
}

// TestCacheMatchesReference drives Cache and the reference with seeded op
// streams over block ranges a few times the capacity, so sets conflict,
// present blocks are re-inserted (leaving duplicates in a set, as
// exclusive L3 spills from two private L2s do) and flag updates hit and
// miss. The index API (Lookup + FlagsAt/SetFlagsAt/InvalidateAt) is checked
// against the reference's block-keyed rescans, and the whole tag, stamp
// and flag state must agree after every op.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []struct {
		name        string
		bytes, ways int
	}{
		{"1-set", 4 * 64, 4},
		{"1-set-16way", 16 * 64, 16},
		{"8-way", 64 * 8 * 64, 8},
		{"16-way", 32 * 16 * 64, 16},
		{"smaller-than-ways", 2 * 64, 8},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			got, ref := New(g.bytes, g.ways), newRefCache(g.bytes, g.ways)
			rng := rand.New(rand.NewSource(int64(g.bytes + g.ways)))
			span := 3 * got.Lines()
			for k := 0; k < 40000; k++ {
				block := uint64(rng.Intn(span))
				f := uint8(rng.Intn(8))
				switch op := rng.Intn(9); op {
				case 0:
					if a, b := got.Access(block), ref.Access(block); a != b {
						t.Fatalf("op %d Access(%d) = %v, reference %v", k, block, a, b)
					}
				case 1, 2:
					if v, w := got.Insert(block, f), ref.Insert(block, f); v != w {
						t.Fatalf("op %d Insert(%d) = %+v, reference %+v", k, block, v, w)
					}
				case 3:
					// Promotion: one Lookup, then InvalidateAt on its index.
					want := ref.find(block)
					ref.Access(block)
					i := got.Lookup(block)
					if i != want {
						t.Fatalf("op %d Lookup(%d) = %d, reference way %d", k, block, i, want)
					}
					if i >= 0 {
						rf, _ := ref.Invalidate(block)
						if gf := got.InvalidateAt(i); gf != rf {
							t.Fatalf("op %d InvalidateAt flags %d, reference %d", k, gf, rf)
						}
					}
				case 4:
					// L2-hit flag update: clear one bit, set another.
					ref.Access(block)
					if rf, ok := ref.Flags(block); ok {
						ref.SetFlags(block, rf&^4)
						ref.OrFlags(block, f&1)
					}
					if i := got.Lookup(block); i >= 0 {
						got.SetFlagsAt(i, got.FlagsAt(i)&^4|f&1)
					}
				case 5:
					got.OrFlags(block, f)
					ref.OrFlags(block, f)
				case 6:
					rf, rok := ref.Invalidate(block)
					if i := got.find(block); (i >= 0) != rok {
						t.Fatalf("op %d find(%d) = %d, reference present %v", k, block, i, rok)
					} else if i >= 0 {
						if gf := got.InvalidateAt(i); gf != rf {
							t.Fatalf("op %d InvalidateAt(%d) flags %d, reference %d", k, block, gf, rf)
						}
					}
				case 7:
					rf, rok := ref.Flags(block)
					if i := got.find(block); (i >= 0) != rok {
						t.Fatalf("op %d find(%d) = %d, reference present %v", k, block, i, rok)
					} else if i >= 0 {
						if gf := got.FlagsAt(i); gf != rf {
							t.Fatalf("op %d FlagsAt(%d) = %d, reference %d", k, block, gf, rf)
						}
						got.SetFlagsAt(i, f)
					}
					ref.SetFlags(block, f)
				case 8:
					if a, b := got.Probe(block), ref.find(block) >= 0; a != b {
						t.Fatalf("op %d Probe(%d) = %v, reference %v", k, block, a, b)
					}
				}
				if got.Hits != ref.Hits || got.Misses != ref.Misses || got.clock != ref.clock {
					t.Fatalf("op %d: hits/misses/clock %d/%d/%d, reference %d/%d/%d",
						k, got.Hits, got.Misses, got.clock, ref.Hits, ref.Misses, ref.clock)
				}
			}
			for i := range ref.tags {
				if got.tags[i] != ref.tags[i] || got.stamp[i] != ref.stamp[i] || got.flags[i] != ref.flags[i] {
					t.Fatalf("line %d = %d/%d/%d, reference %d/%d/%d", i,
						got.tags[i], got.stamp[i], got.flags[i], ref.tags[i], ref.stamp[i], ref.flags[i])
				}
			}
		})
	}
}

// TestLookupReturnsLowestDuplicate pins find's contract on a set holding
// one block twice: Lookup returns the lower way, and invalidating it
// leaves the other copy findable.
func TestLookupReturnsLowestDuplicate(t *testing.T) {
	c := New(4*64, 4) // one set
	for b := uint64(0); b < 4; b++ {
		c.Insert(b, 0) // ways 0..3
	}
	c.Access(0)            // way 1 (block 1) is now the LRU way
	c.Insert(0, FlagDirty) // present block re-inserted: lands in way 1
	i := c.Lookup(0)
	if i != 0 {
		t.Fatalf("Lookup(0) = way %d, want 0 (the lower copy)", i)
	}
	if f := c.InvalidateAt(i); f != 0 {
		t.Fatalf("lower copy flags = %d, want 0", f)
	}
	if j := c.Lookup(0); j != 1 {
		t.Fatalf("after invalidating way 0, Lookup(0) = %d, want 1", j)
	}
	if f := c.FlagsAt(1); f != FlagDirty {
		t.Fatalf("upper copy flags = %d, want dirty", f)
	}
}
