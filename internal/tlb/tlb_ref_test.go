package tlb

import (
	"math/rand"
	"testing"
)

// refTLB is the modulo-indexed TLB the mask-indexed one replaced, kept as
// the reference model.
type refTLB struct {
	sets, ways   int
	tags, stamp  []uint64
	clock        uint64
	Hits, Misses uint64
}

func newRefTLB(entries, ways int) *refTLB {
	return &refTLB{sets: entries / ways, ways: ways, tags: make([]uint64, entries), stamp: make([]uint64, entries)}
}

func (t *refTLB) Lookup(vpn uint64) bool {
	base := int(vpn) % t.sets * t.ways
	t.clock++
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == vpn+1 {
			t.stamp[base+w] = t.clock
			t.Hits++
			return true
		}
	}
	t.Misses++
	return false
}

func (t *refTLB) Insert(vpn uint64) {
	base := int(vpn) % t.sets * t.ways
	victim := base
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == 0 {
			victim = base + w
			break
		}
		if t.stamp[base+w] < t.stamp[victim] {
			victim = base + w
		}
	}
	t.clock++
	t.tags[victim] = vpn + 1
	t.stamp[victim] = t.clock
}

// TestTLBMatchesReference drives the TLB and the reference with seeded
// Lookup/Insert streams (Insert of present vpns included) at the geometries
// the simulator builds, comparing every result, the counters and the final
// tag and stamp arrays.
func TestTLBMatchesReference(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{{2048, 8}, {512, 8}, {16, 4}, {4, 4}, {4096, 8}} {
		got, ref := New(g.entries, g.ways), newRefTLB(g.entries, g.ways)
		rng := rand.New(rand.NewSource(int64(g.entries*10 + g.ways)))
		span := 3 * g.entries
		for k := 0; k < 60000; k++ {
			vpn := uint64(rng.Intn(span))
			if k%7 == 0 {
				vpn = uint64(rng.Int63n(1 << 40)) // high vpn bits above the set index
			}
			if rng.Intn(3) == 0 {
				got.Insert(vpn)
				ref.Insert(vpn)
			} else if a, b := got.Lookup(vpn), ref.Lookup(vpn); a != b {
				t.Fatalf("%d/%d op %d Lookup(%d) = %v, reference %v", g.entries, g.ways, k, vpn, a, b)
			}
			if got.Hits != ref.Hits || got.Misses != ref.Misses {
				t.Fatalf("%d/%d op %d: hits/misses %d/%d, reference %d/%d",
					g.entries, g.ways, k, got.Hits, got.Misses, ref.Hits, ref.Misses)
			}
		}
		for i := range ref.tags {
			if got.tags[i] != ref.tags[i] || got.stamp[i] != ref.stamp[i] {
				t.Fatalf("%d/%d entry %d differs from the reference", g.entries, g.ways, i)
			}
		}
	}
}
