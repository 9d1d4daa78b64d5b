// Package ctecache models the memory controller's CTE cache (Section II/III)
// and TMCC's CTE Buffer (Section V-A3, Figure 10).
//
// The CTE cache holds 64B CTE blocks. Its reach per block depends on the
// design: Compresso's block-level metadata needs a whole 64B block per 4KB
// page (reach 4KB/block), while TMCC's 8B page-level CTEs pack eight pages
// per block (reach 32KB/block) — the 8x reach difference is the core of
// Section IV's argument.
package ctecache

import (
	"fmt"
	"math/bits"

	"tmcc/internal/cache"
	"tmcc/internal/config"
	"tmcc/internal/obs"
)

// Cache is the MC-side CTE cache.
type Cache struct {
	c *cache.Cache
	// blkShift is log2 of the pages one cached CTE block covers.
	blkShift uint
	cfg      config.CTECacheCfg
	// Observability counters (nil when not observed): lifetime Lookup
	// outcomes, bumped live so a registry snapshot mid-run is meaningful.
	obsHit, obsMiss *obs.Counter
	// heat, when non-nil, receives the same Lookup outcomes keyed by page
	// — the heatmap's CTE-locality series (nil-safe methods).
	heat *obs.HeatmapView
}

// pagesPerBlock is how many 4KB pages one cached CTE block covers (a
// reach below one page counts as one page).
func pagesPerBlock(cfg config.CTECacheCfg) int {
	if ppb := cfg.ReachPerBlock / config.PageSize; ppb > 0 {
		return ppb
	}
	return 1
}

// Check reports whether New can build a CTE cache for cfg: a power-of-two
// set count and pages per block. The error is a *config.GeometryError.
func Check(cfg config.CTECacheCfg) error {
	if err := cache.Check("CTE cache", cfg.SizeKB*config.KiB, cfg.Assoc); err != nil {
		return err
	}
	return config.PowerOfTwo("CTE cache pages per block", pagesPerBlock(cfg))
}

// New builds a CTE cache from its configuration. It panics on a geometry
// Check rejects (mc.New checks first and returns the error instead).
func New(cfg config.CTECacheCfg) *Cache {
	if err := Check(cfg); err != nil {
		panic(fmt.Sprintf("ctecache: %v", err))
	}
	return &Cache{
		c:        cache.New(cfg.SizeKB*config.KiB, cfg.Assoc),
		blkShift: uint(bits.TrailingZeros(uint(pagesPerBlock(cfg)))),
		cfg:      cfg,
	}
}

// Observe registers hit/miss counters for Lookup outcomes; nil counters
// (the default) keep the cache unobserved at zero cost.
func (c *Cache) Observe(hit, miss *obs.Counter) {
	c.obsHit, c.obsMiss = hit, miss
}

// ObserveHeat attaches the run's heatmap view so Lookup outcomes also
// land on the page's address-space region.
func (c *Cache) ObserveHeat(hm *obs.HeatmapView) {
	c.heat = hm
}

// blockFor maps a physical page number to its CTE block id.
func (c *Cache) blockFor(ppn uint64) uint64 { return ppn >> c.blkShift }

// Lookup probes the cache for the CTE covering ppn.
func (c *Cache) Lookup(ppn uint64) bool {
	if c.c.Access(c.blockFor(ppn)) {
		c.obsHit.Inc()
		c.heat.CTE(ppn, true)
		return true
	}
	c.obsMiss.Inc()
	c.heat.CTE(ppn, false)
	return false
}

// Fill caches the CTE block covering ppn after a DRAM fetch.
func (c *Cache) Fill(ppn uint64) { c.c.Insert(c.blockFor(ppn), 0) }

// Probe checks presence without recency/counter side effects.
func (c *Cache) Probe(ppn uint64) bool { return c.c.Probe(c.blockFor(ppn)) }

// Hits and Misses expose the counters.
func (c *Cache) Hits() uint64   { return c.c.Hits }
func (c *Cache) Misses() uint64 { return c.c.Misses }

// HitRate is hits/(hits+misses).
func (c *Cache) HitRate() float64 {
	t := c.c.Hits + c.c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.c.Hits) / float64(t)
}

// CTETableAddr returns the DRAM address of the 64B CTE block covering ppn,
// given the base of the linear CTE table in DRAM (Section II: MC stores
// CTEs in DRAM as a linear 1-level table).
func (c *Cache) CTETableAddr(tableBase uint64, ppn uint64) uint64 {
	return tableBase + c.blockFor(ppn)*config.BlockSize
}

// BufEntry is one CTE Buffer record (Figure 10): keyed by the PPN a PTE
// maps to, carrying the truncated CTE embedded in the PTB (if any) and the
// physical address of the PTB that held the PTE — needed for the lazy
// write-back of corrected CTEs.
type BufEntry struct {
	PPN     uint64
	CTE     uint32
	HasCTE  bool
	PTBAddr uint64
}

// Buffer is the CTE Buffer in L2 (the paper uses 64 entries, ~1KB), with
// FIFO replacement over a ring of entries like the hardware's small
// circular structure. Beside the ring sits an open-addressed PPN -> slot
// index: a power-of-two table of at least four times the entries (at half
// that size, probe runs and backward-shift deletes cost twice as much per
// Insert), linear probing, backward-shift delete, a fixed multiply-shift
// hash. Insert, Lookup and Update thus probe a cell or two instead of
// scanning every entry. A PPN is held at most once: re-inserting it
// overwrites its entry in place without advancing the FIFO. No map and no
// allocation on the simulator's access path.
type Buffer struct {
	entries []BufEntry
	filled  int // ring slots written so far (they fill in order, then stay valid)
	next    int
	// The index: per cell, the PPN and its ring slot+1 (0 = empty cell).
	keys  []uint64
	slots []int32
	shift uint // 64 - log2(cells)
	// Observability counters (nil when not observed).
	obsHit, obsMiss *obs.Counter
}

// hashMul is the multiply-shift hash constant (2^64 / golden ratio, odd).
const hashMul = 0x9e3779b97f4a7c15

// Observe registers hit/miss counters for Lookup outcomes.
func (b *Buffer) Observe(hit, miss *obs.Counter) {
	b.obsHit, b.obsMiss = hit, miss
}

// NewBuffer returns a buffer with n entries (the paper uses 64).
func NewBuffer(n int) *Buffer {
	cells := 2
	for cells < 4*n {
		cells <<= 1
	}
	return &Buffer{
		entries: make([]BufEntry, n),
		keys:    make([]uint64, cells),
		slots:   make([]int32, cells),
		shift:   uint(64 - bits.TrailingZeros(uint(cells))),
	}
}

// home is ppn's first probe cell.
func (b *Buffer) home(ppn uint64) int { return int(ppn * hashMul >> b.shift) }

// cell returns the index cell holding ppn, or the empty cell that ends its
// probe run (the table is never full, so the run ends).
func (b *Buffer) cell(ppn uint64) int {
	mask := len(b.slots) - 1
	i := b.home(ppn)
	for b.slots[i] != 0 && b.keys[i] != ppn {
		i = (i + 1) & mask
	}
	return i
}

// find returns the ring slot of the entry for ppn, or -1.
func (b *Buffer) find(ppn uint64) int { return int(b.slots[b.cell(ppn)]) - 1 }

// unindex removes ppn, which must be indexed, closing the gap by shifting
// later cells of the probe run back so every remaining key stays reachable
// from its home cell.
func (b *Buffer) unindex(ppn uint64) {
	mask := len(b.slots) - 1
	hole := b.cell(ppn)
	for j := (hole + 1) & mask; b.slots[j] != 0; j = (j + 1) & mask {
		// The key at j may fill the hole unless its home lies cyclically
		// in (hole, j].
		if h := b.home(b.keys[j]); (j-h)&mask >= (j-hole)&mask {
			b.keys[hole], b.slots[hole] = b.keys[j], b.slots[j]
			hole = j
		}
	}
	b.slots[hole] = 0
}

// Insert records an entry, replacing any existing entry for the same PPN,
// else the FIFO victim.
func (b *Buffer) Insert(e BufEntry) {
	i := b.cell(e.PPN)
	if s := b.slots[i]; s != 0 {
		b.entries[s-1] = e
		return
	}
	slot := b.next
	b.next++
	if b.next == len(b.entries) {
		b.next = 0
	}
	if slot < b.filled {
		b.unindex(b.entries[slot].PPN)
		i = b.cell(e.PPN) // the shift may have moved the free cell
	} else {
		b.filled++
	}
	b.entries[slot] = e
	b.keys[i], b.slots[i] = e.PPN, int32(slot+1)
}

// Lookup fetches the entry for ppn.
func (b *Buffer) Lookup(ppn uint64) (BufEntry, bool) {
	if i := b.find(ppn); i >= 0 {
		b.obsHit.Inc()
		return b.entries[i], true
	}
	b.obsMiss.Inc()
	return BufEntry{}, false
}

// Update stores the corrected CTE into an existing entry (on a response
// from the MC); reports whether the entry was present and whether its CTE
// differed (the PTB must then be rewritten).
func (b *Buffer) Update(ppn uint64, correct uint32) (ptbAddr uint64, present, stale bool) {
	i := b.find(ppn)
	if i < 0 {
		return 0, false, false
	}
	e := &b.entries[i]
	stale = !e.HasCTE || e.CTE != correct
	e.CTE = correct
	e.HasCTE = true
	return e.PTBAddr, true, stale
}

// Len reports valid entries.
func (b *Buffer) Len() int { return b.filled }
