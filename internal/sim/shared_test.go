package sim

import (
	"testing"

	"tmcc/internal/mc"
	"tmcc/internal/pagetable"
)

// withFreshSpaces runs fn with the address-space memo bypassed, so every
// NewRunner inside builds its spaces cold.
func withFreshSpaces(fn func()) {
	prev := newAddressSpace
	newAddressSpace = pagetable.BuildAddressSpace
	defer func() { newAddressSpace = prev }()
	fn()
}

// TestSharedAddressSpaceMetricsIdentical: a run on a shared address space
// (a memo hit, after another run used it) reports exactly the Metrics of
// a run on a freshly built one — for every design, huge pages and the
// virtualized 2D-walk path. Per-run PTB, fault and placement state must
// never leak into the shared table.
func TestSharedAddressSpaceMetricsIdentical(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"uncompressed", Options{Kind: mc.Uncompressed}},
		{"compresso", Options{Kind: mc.Compresso}},
		{"os-inspired", Options{Kind: mc.OSInspired}},
		{"tmcc", Options{Kind: mc.TMCC}},
		{"tmcc-huge", Options{Kind: mc.TMCC, HugePages: true}},
		{"tmcc-virt", Options{Kind: mc.TMCC, Virtualized: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Benchmark = "canneal"
			opt.WarmupAccesses = 10000
			opt.MeasureAccesses = 10000
			opt.Seed = 9
			build := func() *Runner {
				r, err := NewRunner(opt)
				if err != nil {
					t.Fatalf("NewRunner: %v", err)
				}
				return r
			}
			var fresh *Runner
			withFreshSpaces(func() { fresh = build() })
			first, second := build(), build()
			if second.as != first.as || second.guest != first.guest {
				t.Fatal("the second run did not share the first run's address spaces")
			}
			if fresh.as == first.as {
				t.Fatal("the bypassed build returned the memoized address space")
			}
			want := mustRun(t, fresh)
			for i, r := range []*Runner{first, second} {
				if got := mustRun(t, r); got != want {
					t.Errorf("shared run %d differs from a fresh build:\n%+v\n%+v", i, got, want)
				}
			}
		})
	}
}
