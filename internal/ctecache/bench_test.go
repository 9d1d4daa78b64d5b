package ctecache

import (
	"math/rand"
	"testing"
)

// BenchmarkBufferInsert loads the default 64-entry buffer the way a PTB
// load does: the eight PPNs of one PTB per eight Inserts, PTBs drawn from
// a large range so most Inserts evict.
func BenchmarkBufferInsert(b *testing.B) {
	buf := NewBuffer(64)
	rng := rand.New(rand.NewSource(1))
	ptbs := make([]uint64, 1<<12)
	for i := range ptbs {
		ptbs[i] = uint64(rng.Intn(1<<24)) * 8
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := ptbs[(i/8)&(len(ptbs)-1)]
		buf.Insert(BufEntry{PPN: base + uint64(i%8), CTE: uint32(i), HasCTE: true, PTBAddr: base})
	}
}

// BenchmarkBufferLookup probes a full 64-entry buffer with PPNs half of
// which are present.
func BenchmarkBufferLookup(b *testing.B) {
	buf := NewBuffer(64)
	for i := 0; i < 64; i++ {
		buf.Insert(BufEntry{PPN: uint64(i)})
	}
	rng := rand.New(rand.NewSource(2))
	probes := make([]uint64, 1<<12)
	for i := range probes {
		probes[i] = uint64(rng.Intn(128))
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, ok := buf.Lookup(probes[i&(len(probes)-1)]); ok {
			hits++
		}
	}
	if b.N >= len(probes) && hits == 0 {
		b.Fatal("no hits")
	}
}
