package cache

import (
	"math/rand"
	"testing"
)

func TestInsertAccess(t *testing.T) {
	c := New(64*64, 4) // 64 lines
	if c.Access(5) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(5, 0)
	if !c.Access(5) {
		t.Fatal("miss after insert")
	}
}

func TestVictimReported(t *testing.T) {
	c := New(4*64, 4) // one set, 4 ways
	for b := uint64(0); b < 4; b++ {
		if v := c.Insert(b, FlagDirty); v.Valid {
			t.Fatalf("unexpected victim %v filling empty set", v)
		}
	}
	v := c.Insert(9, 0)
	if !v.Valid || v.Block != 0 || v.Flags&FlagDirty == 0 {
		t.Fatalf("victim = %+v, want dirty block 0", v)
	}
}

func TestFlagsLifecycle(t *testing.T) {
	c := New(16*64, 4)
	c.Insert(3, FlagCompressedPTB)
	i := c.Lookup(3)
	if i < 0 || c.FlagsAt(i) != FlagCompressedPTB {
		t.Fatalf("lookup = %d, flags %x", i, c.FlagsAt(i))
	}
	c.OrFlags(3, FlagDirty)
	if f := c.FlagsAt(i); f != FlagCompressedPTB|FlagDirty {
		t.Fatalf("flags after Or = %x", f)
	}
	c.SetFlagsAt(i, 0)
	if f := c.FlagsAt(i); f != 0 {
		t.Fatalf("flags after Set = %x", f)
	}
	c.SetFlagsAt(i, FlagDirty)
	if f := c.InvalidateAt(i); f != FlagDirty {
		t.Fatalf("invalidate = %x", f)
	}
	if c.Probe(3) {
		t.Error("present after invalidate")
	}
}

func TestProbeNoSideEffects(t *testing.T) {
	c := New(16*64, 4)
	c.Insert(1, 0)
	h, m := c.Hits, c.Misses
	c.Probe(1)
	c.Probe(2)
	if c.Hits != h || c.Misses != m {
		t.Error("Probe changed counters")
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(4*64, 4)
	for b := uint64(0); b < 4; b++ {
		c.Insert(b, 0)
	}
	c.Access(0)
	v := c.Insert(10, 0)
	if v.Block != 1 {
		t.Fatalf("victim %d, want 1 (LRU)", v.Block)
	}
}

func TestStridePrefetcher(t *testing.T) {
	p := NewStride(2)
	var got []uint64
	for b := uint64(100); b < 112; b += 3 {
		got = p.Observe(b)
	}
	if len(got) != 2 || got[0] != 109+3 || got[1] != 109+6 {
		t.Fatalf("stride suggestions = %v", got)
	}
	// Irregular stream suggests nothing.
	rng := rand.New(rand.NewSource(1))
	p2 := NewStride(2)
	for i := 0; i < 50; i++ {
		if out := p2.Observe(uint64(rng.Intn(1 << 20))); out != nil && i > 2 {
			t.Fatalf("irregular stream prefetched %v", out)
		}
	}
}

func TestThrottleTurnsOff(t *testing.T) {
	th := NewThrottle(10)
	for i := 0; i < 10; i++ {
		th.Issued() // no useful credits
	}
	if th.Enabled() {
		t.Error("throttle stayed on at 0% accuracy")
	}
	th2 := NewThrottle(10)
	for i := 0; i < 10; i++ {
		th2.Useful()
		th2.Issued()
	}
	if !th2.Enabled() {
		t.Error("throttle turned off at 100% accuracy")
	}
}
