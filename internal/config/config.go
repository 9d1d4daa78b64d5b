// Package config holds the simulated-system parameter sets used across the
// TMCC reproduction. The defaults mirror Table III of the paper
// ("Translation-optimized Memory Compression for Capacity", MICRO 2022).
//
// All times are expressed in picoseconds (type Time) so CPU cycles
// (2.8 GHz -> 357 ps) and DRAM timing (DDR4-3200, tCK = 625 ps) compose
// without rounding surprises.
package config

import (
	"errors"
	"fmt"
)

// Time is a simulation timestamp or duration in picoseconds.
type Time int64

// Picos is the explicit name for Time where code wants to state the unit
// at a declaration site (latency attribution sums, DRAM bus accounting).
// It is an alias, not a distinct type: Time already is picoseconds, so a
// second incompatible picosecond type would force conversions that carry
// no information. The distinct unit in the codebase is Cycles; tmcclint's
// unit-safety rule polices the Time<->Cycles boundary.
type Picos = Time

// Cycles counts CPU clock cycles. It is deliberately a distinct named
// type (not an alias): a cycle count is not a duration until it is
// scaled by the cycle time, and the unit-safety lint rule flags direct
// Time(...)/Cycles(...) conversions that skip the scaling. Convert with
// Cycles.Dur and CyclesIn instead.
type Cycles int64

// Dur converts a cycle count into simulated time given the duration of
// one cycle (see CPU.Cycle).
func (n Cycles) Dur(cycle Time) Time { return Time(n) * cycle }

// CyclesIn reports how many whole cycles of the given duration fit in t;
// a non-positive cycle duration yields 0.
func CyclesIn(t, cycle Time) Cycles {
	if cycle <= 0 {
		return 0
	}
	return Cycles(t / cycle)
}

// Common time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// Size units.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)

// Fixed architectural granularities.
const (
	BlockSize   = 64        // bytes per memory block / cacheline
	PageSize    = 4 * KiB   // bytes per regular OS page
	HugePage    = 2 * MiB   // bytes per huge page (Section VIII)
	PTESize     = 8         // bytes per page table entry
	PTBSize     = BlockSize // a page table block is one cacheline of 8 PTEs
	PTEsPerPTB  = PTBSize / PTESize
	BlocksPage  = PageSize / BlockSize // 64 blocks per page
	PTEsPerPage = PageSize / PTESize   // 512
)

// ErrGeometry marks a structure geometry the simulator cannot index. Set
// counts (caches, TLBs, the page walk cache), DRAM banks, rows and
// interleave granularities must be positive powers of two: the access path
// selects sets and decodes DRAM addresses with masks and shifts, not
// divisions. A geometry that breaks this is rejected at construction, never
// rounded.
var ErrGeometry = errors.New("geometry must be a positive power of two")

// GeometryError names the quantity that broke the power-of-two
// precondition; it wraps ErrGeometry.
type GeometryError struct {
	What  string // e.g. "L3 sets", "DRAM banks per rank"
	Value int
}

func (e *GeometryError) Error() string {
	return fmt.Sprintf("config: %s = %d: %v", e.What, e.Value, ErrGeometry)
}

func (e *GeometryError) Unwrap() error { return ErrGeometry }

// PowerOfTwo returns a *GeometryError naming what unless v is a positive
// power of two.
func PowerOfTwo(what string, v int) error {
	if v <= 0 || v&(v-1) != 0 {
		return &GeometryError{What: what, Value: v}
	}
	return nil
}

// CPU holds core-model parameters (Table III, first row).
type CPU struct {
	Cores       int
	FreqGHz     float64
	Width       int // issue width
	WindowSize  int // in-flight instruction window (proxy for ROB)
	MaxMisses   int // outstanding L1-miss registers per core (MSHRs)
	TLBEntries  int // single-level TLB as in Section VI
	TLBAssoc    int
	WalkCacheKB int // per-core page walk cache
}

// Cycle returns the duration of one CPU cycle.
func (c CPU) Cycle() Time {
	return Time(1000.0 / c.FreqGHz)
}

// Caches holds the three-level hierarchy parameters (Table III).
type Caches struct {
	L1SizeKB int // combined per-core L1d (we model the data side)
	L2SizeKB int // per-core, inclusive of L1
	L3SizeMB int // shared, exclusive
	Assoc    int

	L1Cycles Cycles // hit latency in CPU cycles
	L2Cycles Cycles // additional cycles over L1
	L3Cycles Cycles // additional cycles over L2

	NextLinePrefetch bool
	StrideDegreeL1   int
	StrideDegreeL2   int
}

// DRAM holds DDR4 channel timing and organization (Table III).
type DRAM struct {
	Channels      int
	RanksPerChan  int
	BanksPerRank  int
	RowBytes      int
	TCL           Time // CAS latency
	TRCD          Time // RAS-to-CAS
	TRP           Time // precharge
	TBL           Time // burst transfer time of one 64B block
	TREFI         Time // refresh interval per rank
	TRFC          Time // refresh duration (rank unavailable)
	RowAccessCap  int  // FR-FCFS-Capped: max consecutive hits per row
	NoCLatency    Time // MC <-> LLC tile network latency, each way totals 18ns round trip in the paper's accounting
	ReadQueueLen  int
	WriteQueueLen int
	// Interleaving policy across channels within an MC and across MCs.
	ChannelInterleaveBytes int // granularity of channel interleave
	MCInterleaveBytes      int // granularity of inter-MC interleave (Section VIII)
	MCs                    int // number of memory controllers
}

// CTECacheCfg configures the compression-translation-entry cache in the MC.
type CTECacheCfg struct {
	SizeKB int
	// ReachPerBlock is how many bytes of physical address space one cached
	// 64B CTE block translates. Compresso: 4 KiB (one page, per-block
	// entries). TMCC/OS-inspired: 32 KiB (eight pages, 8B page-level CTEs).
	ReachPerBlock int
	Assoc         int
}

// Compression selects the MC design and its knobs.
type Compression struct {
	CTE CTECacheCfg

	// OS-inspired / TMCC knobs.
	RecencySampleRate float64 // fraction of ML1 accesses that update the Recency List (paper: 0.01)
	FreeListLowChunks int     // ML1 grows the list below this many free 4KB chunks (paper: 4000)
	FreeListCritical  int     // below this, eviction outranks demand ML2 reads (paper: 3000)
	MigrationBufPages int     // MC-side staging buffer entries (paper: eight 4KB entries)
	MaxQueueSlots     int     // page-granularity ops may hold at most this many MC queue slots (paper: 10)

	// TMCC knobs.
	EmbedCTEs     bool // compress PTBs and embed CTEs (ML1 optimization)
	FastDeflate   bool // memory-specialized Deflate for ML2 (ML2 optimization)
	CTEBufEntries int  // CTE Buffer in L2 (paper: 64)
	DRAMPerMCTB   int  // TB of DRAM one MC manages; sets truncated-CTE width (paper: 1)
	OSExpansion   int  // OS physical pages as a multiple of DRAM size (paper: 4)
}

// System bundles a complete simulated machine.
type System struct {
	CPU   CPU
	Cache Caches
	DRAM  DRAM
	Comp  Compression
}

// Default returns the Table III system.
func Default() System {
	return System{
		CPU: CPU{
			Cores:       4,
			FreqGHz:     2.8,
			Width:       4,
			WindowSize:  192,
			MaxMisses:   16,
			TLBEntries:  2048,
			TLBAssoc:    8,
			WalkCacheKB: 1,
		},
		Cache: Caches{
			L1SizeKB:         64,
			L2SizeKB:         256,
			L3SizeMB:         8,
			Assoc:            8,
			L1Cycles:         3,
			L2Cycles:         11,
			L3Cycles:         50,
			NextLinePrefetch: true,
			StrideDegreeL1:   2,
			StrideDegreeL2:   4,
		},
		DRAM: DRAM{
			Channels:               1,
			RanksPerChan:           8,
			BanksPerRank:           16,
			RowBytes:               8 * KiB,
			TCL:                    13750 * Picosecond,
			TRCD:                   13750 * Picosecond,
			TRP:                    13750 * Picosecond,
			TBL:                    2500 * Picosecond, // 4 tCK at DDR4-3200
			TREFI:                  7800 * Nanosecond,
			TRFC:                   350 * Nanosecond,
			RowAccessCap:           4,
			NoCLatency:             18 * Nanosecond,
			ReadQueueLen:           64,
			WriteQueueLen:          64,
			ChannelInterleaveBytes: 256,
			MCInterleaveBytes:      512,
			MCs:                    1,
		},
		Comp: Compression{
			CTE: CTECacheCfg{
				SizeKB:        64,
				ReachPerBlock: 32 * KiB,
				Assoc:         8,
			},
			RecencySampleRate: 0.01,
			FreeListLowChunks: 4000,
			FreeListCritical:  3000,
			MigrationBufPages: 8,
			MaxQueueSlots:     10,
			EmbedCTEs:         true,
			FastDeflate:       true,
			CTEBufEntries:     64,
			DRAMPerMCTB:       1,
			OSExpansion:       4,
		},
	}
}

// CompressoCTE returns the Compresso CTE cache configuration from Table III:
// 128 KB with one 4KB page of reach per cached 64B CTE block.
func CompressoCTE() CTECacheCfg {
	return CTECacheCfg{SizeKB: 128, ReachPerBlock: 4 * KiB, Assoc: 8}
}

// ProblemCTE returns the Section III configuration used for Figures 1 and 2:
// a 64 KB block-level CTE cache (1K pages of reach).
func ProblemCTE() CTECacheCfg {
	return CTECacheCfg{SizeKB: 64, ReachPerBlock: 4 * KiB, Assoc: 8}
}
