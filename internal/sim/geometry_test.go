package sim

import (
	"errors"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/mc"
)

// TestNewRunnerRejectsNonPowerOfTwoGeometry checks that each structure
// the access path indexes with a mask makes construction fail with an
// error wrapping config.ErrGeometry (never a panic, never a silently
// rounded geometry): the core-side caches, TLB and walk cache, and the
// MC-side DRAM and CTE cache.
func TestNewRunnerRejectsNonPowerOfTwoGeometry(t *testing.T) {
	cases := []struct {
		name string
		kind mc.Kind
		mod  func(*config.System, *Options)
	}{
		{"L3 size", mc.TMCC, func(s *config.System, _ *Options) { s.Cache.L3SizeMB = 6 }},
		{"TLB entries", mc.TMCC, func(s *config.System, _ *Options) { s.CPU.TLBEntries = 1536 }},
		{"TLB entries not a multiple of ways", mc.TMCC, func(s *config.System, _ *Options) { s.CPU.TLBEntries = 2044 }},
		{"walk cache size", mc.TMCC, func(s *config.System, _ *Options) { s.CPU.WalkCacheKB = 3 }},
		{"L2 size", mc.Compresso, func(s *config.System, _ *Options) { s.Cache.L2SizeKB = 192 }},
		{"DRAM banks", mc.Uncompressed, func(s *config.System, _ *Options) { s.DRAM.BanksPerRank = 12 }},
		{"CTE cache size", mc.TMCC, func(s *config.System, _ *Options) { s.Comp.CTE.SizeKB = 48 }},
		{"CTE override", mc.Compresso, func(_ *config.System, o *Options) {
			o.CTEOverride = &config.CTECacheCfg{SizeKB: 96, ReachPerBlock: 4 * config.KiB, Assoc: 8}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("NewRunner panicked: %v", p)
				}
			}()
			sys := config.Default()
			opt := Options{Benchmark: "canneal", Kind: c.kind, WarmupAccesses: 100, MeasureAccesses: 100, Seed: 42}
			c.mod(&sys, &opt)
			opt.Sys = sys
			r, err := NewRunner(opt)
			if !errors.Is(err, config.ErrGeometry) {
				t.Fatalf("NewRunner = %v, %v; want an error wrapping config.ErrGeometry", r, err)
			}
			var ge *config.GeometryError
			if !errors.As(err, &ge) {
				t.Fatalf("error %v carries no *config.GeometryError", err)
			}
		})
	}
}
