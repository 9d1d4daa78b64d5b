package dram

import (
	"math/rand"
	"testing"

	"tmcc/internal/config"
)

// refDecode is the division-based address decode the precomputed shifts
// and masks replaced, kept as the reference model.
func refDecode(cfg config.DRAM, addr uint64) (ch, rk, bk int, row int64) {
	mc := 0
	if cfg.MCs > 1 {
		mc = int(addr/uint64(cfg.MCInterleaveBytes)) % cfg.MCs
	}
	chIdx := 0
	if cfg.Channels > 1 {
		chIdx = int(addr/uint64(cfg.ChannelInterleaveBytes)) % cfg.Channels
	}
	ch = mc*cfg.Channels + chIdx
	rowAddr := addr / uint64(cfg.RowBytes)
	banksTotal := uint64(cfg.RanksPerChan * cfg.BanksPerRank)
	b := (rowAddr ^ rowAddr>>7 ^ rowAddr>>13) % banksTotal
	rk = int(b) / cfg.BanksPerRank
	bk = int(b) % cfg.BanksPerRank
	row = int64(rowAddr / banksTotal)
	return
}

// TestDecodeMatchesReference compares decode with the division-based
// reference on random addresses for the default geometry and the
// multi-MC, multi-channel interleavings Figure 22 builds.
func TestDecodeMatchesReference(t *testing.T) {
	geoms := []func(*config.DRAM){
		func(*config.DRAM) {},
		func(d *config.DRAM) {
			d.MCs, d.Channels, d.MCInterleaveBytes, d.ChannelInterleaveBytes = 2, 2, 512, 256
		},
		func(d *config.DRAM) {
			d.MCs, d.Channels, d.MCInterleaveBytes, d.ChannelInterleaveBytes = 2, 2, 4096, 4096
		},
		func(d *config.DRAM) { d.Channels, d.RanksPerChan, d.BanksPerRank, d.RowBytes = 4, 2, 8, 2048 },
	}
	rng := rand.New(rand.NewSource(4))
	for gi, mod := range geoms {
		cfg := config.Default().DRAM
		mod(&cfg)
		c := New(cfg)
		for i := 0; i < 200000; i++ {
			addr := uint64(rng.Int63n(1 << 40))
			ch, rk, bk, row := c.decode(addr)
			wch, wrk, wbk, wrow := refDecode(cfg, addr)
			if ch != wch || rk != wrk || bk != wbk || row != wrow {
				t.Fatalf("geometry %d addr %#x: decode = %d/%d/%d/%d, reference %d/%d/%d/%d",
					gi, addr, ch, rk, bk, row, wch, wrk, wbk, wrow)
			}
		}
	}
}

// TestCheckRejectsNonPowerOfTwo covers each decoded field.
func TestCheckRejectsNonPowerOfTwo(t *testing.T) {
	for _, mod := range []func(*config.DRAM){
		func(d *config.DRAM) { d.RowBytes = 6000 },
		func(d *config.DRAM) { d.BanksPerRank = 12 },
		func(d *config.DRAM) { d.RanksPerChan = 3 },
		func(d *config.DRAM) { d.Channels = 3 },
		func(d *config.DRAM) { d.MCs = 0 },
		func(d *config.DRAM) { d.Channels, d.ChannelInterleaveBytes = 2, 384 },
		func(d *config.DRAM) { d.MCs, d.MCInterleaveBytes = 2, 0 },
	} {
		cfg := config.Default().DRAM
		mod(&cfg)
		if err := Check(cfg); err == nil {
			t.Errorf("Check accepted %+v", cfg)
		}
	}
	cfg := config.Default().DRAM
	cfg.MCInterleaveBytes = 3 // unused with one MC
	if err := Check(cfg); err != nil {
		t.Errorf("single-MC interleave granularity rejected: %v", err)
	}
}
