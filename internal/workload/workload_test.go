package workload

import (
	"testing"
	"testing/quick"

	"tmcc/internal/memdeflate"
)

func TestSpecsExistForAllBenchmarks(t *testing.T) {
	for _, b := range append(LargeBenchmarks(), SmallBenchmarks()...) {
		s, ok := SpecFor(b)
		if !ok {
			t.Fatalf("missing spec %q", b)
		}
		if s.FootprintPages == 0 || s.HotPages == 0 || s.SeqRun == 0 {
			t.Errorf("%s: degenerate spec %+v", b, s)
		}
		if s.HotPages+s.WarmPages > s.FootprintPages {
			t.Errorf("%s: hot+warm exceed footprint", b)
		}
		if s.Reuse < 0 || s.Reuse >= 1 || s.ColdJump < 0 || s.ColdJump > 1 {
			t.Errorf("%s: probabilities out of range", b)
		}
	}
	if _, ok := SpecFor("bogus"); ok {
		t.Error("unknown benchmark resolved")
	}
}

func TestTraceDeterministic(t *testing.T) {
	spec, _ := SpecFor("pageRank")
	t1 := NewTrace(spec, 0x1000, 7)
	t2 := NewTrace(spec, 0x1000, 7)
	for i := 0; i < 1000; i++ {
		if t1.Next() != t2.Next() {
			t.Fatalf("diverged at access %d", i)
		}
	}
}

func TestTraceStaysInFootprint(t *testing.T) {
	spec, _ := SpecFor("canneal")
	vbase := uint64(0x10000)
	tr := NewTrace(spec, vbase, 3)
	for i := 0; i < 20000; i++ {
		a := tr.Next()
		vpn := a.VAddr >> 12
		if vpn < vbase || vpn >= vbase+spec.FootprintPages {
			t.Fatalf("access %d outside footprint: vpn %#x", i, vpn)
		}
		if a.VAddr%64 != 0 {
			t.Fatalf("unaligned access %#x", a.VAddr)
		}
	}
}

func TestTraceStatistics(t *testing.T) {
	spec, _ := SpecFor("pageRank")
	tr := NewTrace(spec, 0, 5)
	const n = 60000
	writes, deps, gaps := 0, 0, 0
	pages := map[uint64]bool{}
	for i := 0; i < n; i++ {
		a := tr.Next()
		if a.Write {
			writes++
		}
		if a.Dep {
			deps++
		}
		gaps += a.Gap
		pages[a.VAddr>>12] = true
	}
	wf := float64(writes) / n
	if wf < spec.WriteFrac-0.05 || wf > spec.WriteFrac+0.05 {
		t.Errorf("write fraction %.3f, want ~%.2f", wf, spec.WriteFrac)
	}
	gm := float64(gaps) / n
	if gm < float64(spec.GapMean)*0.8 || gm > float64(spec.GapMean)*1.2 {
		t.Errorf("gap mean %.1f, want ~%d", gm, spec.GapMean)
	}
	if deps == 0 {
		t.Error("no dependent accesses generated")
	}
	// Page diversity must exceed every translation reach (the premise of
	// the whole paper).
	if len(pages) < 2000 {
		t.Errorf("only %d distinct pages touched; too cacheable", len(pages))
	}
}

func TestQuickTraceWellFormed(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		names := LargeBenchmarks()
		spec, _ := SpecFor(names[int(which)%len(names)])
		tr := NewTrace(spec, 4096, seed)
		for i := 0; i < 200; i++ {
			a := tr.Next()
			vpn := a.VAddr >> 12
			if vpn < 4096 || vpn >= 4096+spec.FootprintPages || a.Gap < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSizeModel(t *testing.T) {
	m, err := NewSizeModel("pageRank", 64, 1, memdeflate.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic per ppn.
	d1, b1 := m.PageSizes(12345)
	d2, b2 := m.PageSizes(12345)
	if d1 != d2 || b1 != b2 {
		t.Error("PageSizes not deterministic")
	}
	// Means must land near the calibrated profile targets: graph pages
	// compress ~3x under Deflate, ~1.3x under block-level.
	dm, bm := m.MeanSizes()
	if r := 4096 / dm; r < 2.4 || r > 3.8 {
		t.Errorf("deflate ratio %.2f, want ~3.0", r)
	}
	if r := 4096 / bm; r < 1.1 || r > 1.6 {
		t.Errorf("block ratio %.2f, want ~1.3", r)
	}
	if m.MeanCompressoPageBytes() < bm {
		t.Error("512B chunk rounding made pages smaller")
	}
	if m.MeanHalfPagePS <= 0 || m.MeanCompressPS <= 0 {
		t.Error("ASIC timing means not populated")
	}
}

func TestSizeModelUnknownBenchmark(t *testing.T) {
	if _, err := NewSizeModel("bogus", 8, 1, memdeflate.DefaultParams()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMeanML2ChunkFraction(t *testing.T) {
	m, _ := NewSizeModel("pageRank", 64, 1, memdeflate.DefaultParams())
	classFor := func(size int) (int, bool) {
		if size > 3584 {
			return 0, false
		}
		return (size + 255) / 256 * 256, true
	}
	f := m.MeanML2ChunkFraction(classFor)
	dm, _ := m.MeanSizes()
	if f < dm/4096 {
		t.Errorf("chunk fraction %.3f below raw mean %.3f", f, dm/4096)
	}
	if f > 1 {
		t.Errorf("chunk fraction %.3f > 1", f)
	}
}

// benchTraceNext times Trace.Next on one benchmark's spec.
func benchTraceNext(b *testing.B, bench string) {
	spec, _ := SpecFor(bench)
	tr := NewTrace(spec, 0, 42)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += tr.Next().VAddr
	}
	benchSink = sink
}

var benchSink uint64

// BenchmarkTraceNext measures trace generation at the lightest (canneal,
// GapMean 30) and heaviest (triCount, GapMean 132) compute gaps.
func BenchmarkTraceNext(b *testing.B) {
	b.Run("gap30", func(b *testing.B) { benchTraceNext(b, "canneal") })
	b.Run("gap132", func(b *testing.B) { benchTraceNext(b, "triCount") })
}
