package cache

import (
	"math/rand"
	"testing"

	"tmcc/internal/config"
)

// l3 builds the default shared L3 (8 MiB, 16 ways) and a block stream
// four times its reach, so hits and misses mix.
func l3(b *testing.B) (*Cache, []uint64) {
	c := New(8*config.MiB, 16)
	rng := rand.New(rand.NewSource(3))
	blocks := make([]uint64, 1<<16)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(4 * c.Lines()))
	}
	for _, blk := range blocks {
		c.Insert(blk, 0)
	}
	return c, blocks
}

// BenchmarkCacheAccess probes the L3 geometry (one set scan per call).
func BenchmarkCacheAccess(b *testing.B) {
	c, blocks := l3(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(blocks[i&(len(blocks)-1)])
	}
}

// BenchmarkCacheInsert fills the L3 geometry (victim search over a full
// 16-way set).
func BenchmarkCacheInsert(b *testing.B) {
	c, blocks := l3(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(blocks[(i*7)&(len(blocks)-1)], 0)
	}
}
