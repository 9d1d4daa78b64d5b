// Package tlb models the translation lookaside buffer and the per-core page
// walk cache. Following the paper's methodology (Section VI), the TLB is a
// single-level set-associative structure with 2048 entries — sized so the
// simulated hit rate matches real two-level designs (AMD Zen 3) — and the
// walk cache holds upper-level translations so most walks skip the L4/L3
// fetches.
package tlb

import (
	"fmt"

	"tmcc/internal/config"
)

// TLB is a set-associative, LRU translation cache keyed by virtual page
// number. The set count is a power of two (see Check), so a vpn's set is
// its low bits.
type TLB struct {
	mask  uint64 // sets-1
	ways  int
	tags  []uint64 // sets*ways entries; +1 so 0 means invalid
	stamp []uint64
	clock uint64

	Hits   uint64
	Misses uint64
}

// Check reports whether New can build a TLB of entries with the given
// ways: entries must be a multiple of ways, and the set count must be a
// positive power of two. The error is a *config.GeometryError naming the
// structure as name.
func Check(name string, entries, ways int) error {
	if ways <= 0 || entries%ways != 0 {
		return &config.GeometryError{What: fmt.Sprintf("%s entries over %d ways", name, ways), Value: entries}
	}
	return config.PowerOfTwo(name+" sets", entries/ways)
}

// New builds a TLB with the given total entries and associativity. It
// panics on a geometry Check rejects; simulator construction checks first
// and returns the error instead.
func New(entries, ways int) *TLB {
	if err := Check("tlb", entries, ways); err != nil {
		panic(fmt.Sprintf("tlb: %v", err))
	}
	return &TLB{
		mask:  uint64(entries/ways - 1),
		ways:  ways,
		tags:  make([]uint64, entries),
		stamp: make([]uint64, entries),
	}
}

// Lookup probes for vpn, updating recency and hit/miss counters.
func (t *TLB) Lookup(vpn uint64) bool {
	base := int(vpn&t.mask) * t.ways
	t.clock++
	for w, tag := range t.tags[base : base+t.ways] {
		if tag == vpn+1 {
			t.stamp[base+w] = t.clock
			t.Hits++
			return true
		}
	}
	t.Misses++
	return false
}

// Insert fills vpn, evicting the set's LRU entry.
func (t *TLB) Insert(vpn uint64) {
	base := int(vpn&t.mask) * t.ways
	tags := t.tags[base : base+t.ways]
	stamps := t.stamp[base : base+t.ways]
	v := 0
	for w, tag := range tags {
		if tag == 0 {
			v = w
			break
		}
		if stamps[w] < stamps[v] {
			v = w
		}
	}
	t.clock++
	tags[v] = vpn + 1
	stamps[v] = t.clock
}

// Flush empties the TLB (context switch).
func (t *TLB) Flush() {
	for i := range t.tags {
		t.tags[i] = 0
	}
}

// WalkCache caches upper-level page-table entries so a walk can start below
// L4. Entry granularity: level 2 entries cover 2MB (one L1 table page),
// level 3 cover 1GB. A hit at level L means the walker only fetches the
// PTBs at levels <= L.
type WalkCache struct {
	l2 *TLB // caches vpn>>9 -> L1-table-page translations
	l3 *TLB // caches vpn>>18
}

// walkCacheHalf is the per-level entry count NewWalkCache builds from a
// byte budget.
func walkCacheHalf(bytes int) int {
	entries := bytes / 16
	if entries < 8 {
		entries = 8
	}
	half := entries / 2
	if half%4 != 0 {
		half = (half/4 + 1) * 4
	}
	return half
}

// CheckWalkCache reports whether NewWalkCache can build a walk cache from
// bytes (each level's set count must be a power of two).
func CheckWalkCache(bytes int) error {
	return Check("walk cache", walkCacheHalf(bytes), 4)
}

// NewWalkCache sizes the structure from a byte budget (Table III: 1KB per
// core); each cached entry is modeled at 16 bytes, split between levels.
func NewWalkCache(bytes int) *WalkCache {
	half := walkCacheHalf(bytes)
	return &WalkCache{l2: New(half, 4), l3: New(half, 4)}
}

// WalkStart returns the first page-table level the walker must fetch for
// vpn: 1 if the L2-level entry is cached (only the leaf PTB is fetched),
// 2 if only the L3-level is cached, else 4 (full walk). Recency updates on
// probe, matching a real PWC.
func (w *WalkCache) WalkStart(vpn uint64) int {
	if w.l2.Lookup(vpn >> 9) {
		return 1
	}
	if w.l3.Lookup(vpn >> 18) {
		return 2
	}
	return 4
}

// FillFromWalk caches the upper levels touched by a completed walk.
func (w *WalkCache) FillFromWalk(vpn uint64) {
	w.l2.Insert(vpn >> 9)
	w.l3.Insert(vpn >> 18)
}
