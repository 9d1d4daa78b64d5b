package pagetable

import "math/rand"

// OSConfig tunes the modeled OS allocator that builds an address space.
// The noise rates are calibrated so a Figure 6 scan of the resulting tables
// reproduces the paper's page-table-dump measurements: 99.94% of L1 PTBs
// and 99.3% of L2 PTBs have identical status bits across all eight entries.
type OSConfig struct {
	Seed int64
	// L1FlagNoise is the per-L1-PTE probability of carrying status bits
	// that differ from its region (guard pages, COW pages, mprotect spots).
	L1FlagNoise float64
	// L2FlagNoise is the per-L2-PTE equivalent (table pages with unusual
	// attributes).
	L2FlagNoise float64
	// Fragmentation is the probability that the physical allocator breaks
	// its sequential run and jumps to a random free area, scattering PPNs.
	Fragmentation float64
	// Regions is how many virtual regions (code, heap arenas, stacks,
	// mmaps) the footprint is split into; flags are uniform inside one.
	Regions int
	// HugePages maps the space with 2MB pages.
	HugePages bool
}

// DefaultOSConfig returns the calibrated allocator model.
func DefaultOSConfig(seed int64) OSConfig {
	return OSConfig{
		Seed:          seed,
		L1FlagNoise:   0.000075,
		L2FlagNoise:   0.0009,
		Fragmentation: 0.02,
		Regions:       24,
	}
}

// AddressSpace is a built program image: the table plus the mapping
// parameters the simulator needs. It is immutable once built, which is
// what lets SharedAddressSpace hand one instance to many runs.
type AddressSpace struct {
	Table     *Table
	DataPages uint64 // mapped 4KB data pages
	// VBase is the first mapped virtual page number; regions are laid out
	// contiguously above it (mirroring one large heap plus mmaps).
	VBase uint64
	// OSPages is the size of the OS physical page pool the allocator drew
	// from (sets the PPN width; Section V-A5 truncation depends on it).
	OSPages uint64
	// VPNToPPN is the dense translation over VPNRange: entry vpn-VBase
	// holds the data PPN the table maps vpn to (NoPPN for a hole). It is
	// filled while mapping, so readers never descend the radix.
	VPNToPPN []uint64
}

// NoPPN marks an unmapped entry of AddressSpace.VPNToPPN.
const NoPPN = ^uint64(0)

// regionFlagChoices are the status-bit combinations regions draw from;
// index 0 (normal RW data) dominates, like real heaps.
var regionFlagChoices = []uint64{
	FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagDirty | FlagNX,
	FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagDirty | FlagNX,
	FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagDirty | FlagNX,
	FlagPresent | FlagUser | FlagAccessed,          // code: read-only, executable
	FlagPresent | FlagUser | FlagAccessed | FlagNX, // read-only data
}

// oddFlagChoices are the rare per-page deviations inside a region.
var oddFlagChoices = []uint64{
	FlagPresent | FlagUser | FlagAccessed | FlagNX,             // mprotected read-only
	FlagPresent | FlagWrite | FlagUser | FlagNX,                // not yet accessed
	FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagNX, // clean (not dirty)
	FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagDirty | FlagGlobal | FlagNX,
}

// BuildAddressSpace maps dataPages of virtual memory and returns the
// resulting address space. osPages is the OS physical pool size (>=
// dataPages plus table overhead); PPNs are drawn from it with the
// configured fragmentation.
func BuildAddressSpace(dataPages, osPages uint64, cfg OSConfig) *AddressSpace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Regions <= 0 {
		cfg.Regions = 1
	}

	// Physical allocator: sequential runs with random restarts, never
	// handing out the same frame twice. Table pages and data pages
	// interleave in the same pool, like a buddy allocator under load.
	used := make([]bool, osPages)
	next := uint64(rng.Int63n(int64(osPages / 4)))
	allocPPN := func() uint64 {
		if rng.Float64() < cfg.Fragmentation {
			next = uint64(rng.Int63n(int64(osPages)))
		}
		for {
			p := next % osPages
			next++
			if !used[p] {
				used[p] = true
				return p
			}
		}
	}
	// Huge-page data allocations must be 512-aligned; keep a separate
	// aligned bump pointer for them.
	nextHuge := uint64(0)
	allocHugePPN := func() uint64 {
		for {
			p := nextHuge % osPages
			nextHuge += EntriesPer
			if !used[p] {
				for i := uint64(0); i < EntriesPer; i++ {
					used[p+i] = true
				}
				return p
			}
		}
	}

	// Carve the footprint into regions with uniform flags. The shares are
	// fixed by the sizes alone; the flags are drawn after the root table
	// page, which is the allocator's first draw.
	type region struct {
		pages uint64
		flags uint64
	}
	regions := make([]region, cfg.Regions)
	remaining := dataPages
	for i := range regions {
		share := remaining / uint64(cfg.Regions-i)
		if i == len(regions)-1 {
			share = remaining
		}
		regions[i].pages = share
		remaining -= share
	}
	as := &AddressSpace{DataPages: dataPages, VBase: 0x10000, OSPages: osPages}
	mapped := dataPages // pages the regions map, from VBase up
	if cfg.HugePages {
		as.VBase = as.VBase / EntriesPer * EntriesPer
		mapped = 0
		for _, r := range regions {
			mapped += (r.pages + EntriesPer - 1) / EntriesPer * EntriesPer
		}
	}
	// The directory covers the pool and the slab holds exactly the table
	// pages the mapped range needs, so neither grows during the build.
	t := newTable(allocPPN, cfg.HugePages, osPages, tablePagesFor(as.VBase, as.VBase+mapped, cfg.HugePages))
	as.Table = t
	for i := range regions {
		regions[i].flags = regionFlagChoices[rng.Intn(len(regionFlagChoices))]
	}
	lo, hi := as.VPNRange()
	as.VPNToPPN = make([]uint64, hi-lo)
	for i := range as.VPNToPPN {
		as.VPNToPPN[i] = NoPPN
	}

	vpn := as.VBase
	for _, r := range regions {
		if cfg.HugePages {
			// Round the region to whole 2MB frames.
			for done := uint64(0); done < r.pages; done += EntriesPer {
				ppn := allocHugePPN()
				t.Map(vpn, ppn, r.flags)
				for k := uint64(0); k < EntriesPer && vpn+k < hi; k++ {
					as.VPNToPPN[vpn+k-lo] = ppn + k
				}
				vpn += EntriesPer
			}
			continue
		}
		for p := uint64(0); p < r.pages; p++ {
			flags := r.flags
			if rng.Float64() < cfg.L1FlagNoise {
				flags = oddFlagChoices[rng.Intn(len(oddFlagChoices))]
			}
			ppn := allocPPN()
			t.Map(vpn, ppn, flags)
			as.VPNToPPN[vpn-lo] = ppn
			vpn++
		}
	}

	// Apply L2-level noise: revisit the L2 PTEs (pointing to L1 table
	// pages) and perturb a small fraction, as real kernels do for table
	// pages with special attributes.
	if !cfg.HugePages && cfg.L2FlagNoise > 0 {
		t.perturbLevel(2, cfg.L2FlagNoise, rng)
	}
	return as
}

// tablePagesFor counts the table pages a 4-level table needs to map the
// contiguous range [lo, hi): the root plus, on each level from the leaf up,
// one page per distinct span that level's pages cover.
func tablePagesFor(lo, hi uint64, hugePages bool) int {
	n := 1
	if hi <= lo {
		return n
	}
	leaf := 1
	if hugePages {
		leaf = 2
	}
	for level := leaf; level < Levels; level++ {
		shift := uint(level) * levelBits
		n += int((hi-1)>>shift - lo>>shift + 1)
	}
	return n
}

// perturbLevel flips the status bits of a fraction of PTEs at the given
// table level (2 = entries pointing at L1 table pages).
func (t *Table) perturbLevel(level int, rate float64, rng *rand.Rand) {
	var rec func(ref pageRef, l int)
	rec = func(ref pageRef, l int) {
		if l == level {
			ptes := &t.ptes[ref.page]
			for i := range ptes {
				if ptes[i]&FlagPresent != 0 && rng.Float64() < rate {
					ptes[i] |= FlagPCD // an unusual cacheability attribute
				}
			}
			return
		}
		for _, c := range t.kids[ref.kids] {
			if c.page != 0 {
				rec(c, l-1)
			}
		}
	}
	rec(pageRef{}, Levels)
}

// VPNRange returns the mapped virtual page number range [VBase, VBase+n).
func (as *AddressSpace) VPNRange() (lo, hi uint64) {
	n := as.DataPages
	if as.Table.HugePages() {
		n = (n + EntriesPer - 1) / EntriesPer * EntriesPer
	}
	return as.VBase, as.VBase + n
}
