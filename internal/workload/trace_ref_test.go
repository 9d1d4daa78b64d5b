package workload

import (
	"math/rand"
	"sort"
	"testing"

	"tmcc/internal/config"
)

// refTrace is the math/rand generator Trace replaced, kept verbatim as the
// reference its stream must reproduce access for access.
type refTrace struct {
	spec  Spec
	rng   *rand.Rand
	vbase uint64

	curPage  uint64
	curBlock int
	run      int
	runLen   int

	hist     [64]uint64
	histN    int
	histNext int
}

func newRefTrace(spec Spec, vbase uint64, seed int64) *refTrace {
	t := &refTrace{spec: spec, rng: rand.New(rand.NewSource(seed)), vbase: vbase}
	t.jump()
	return t
}

func (t *refTrace) jump() {
	switch r := t.rng.Float64(); {
	case r < t.spec.HotFrac:
		const cluster = 8
		nClusters := t.spec.HotPages / cluster
		if nClusters == 0 {
			nClusters = 1
		}
		c := uint64(t.rng.Int63n(int64(nClusters)))
		stride := t.spec.FootprintPages / nClusters
		if stride < cluster {
			stride = cluster
		}
		t.curPage = (c*stride + uint64(t.rng.Intn(cluster))) % t.spec.FootprintPages
	case t.rng.Float64() < t.spec.ColdJump || t.spec.WarmPages == 0:
		t.curPage = uint64(t.rng.Int63n(int64(t.spec.FootprintPages)))
	default:
		t.curPage = uint64(t.rng.Int63n(int64(t.spec.WarmPages)))
	}
	t.curBlock = t.rng.Intn(64)
	t.run = 1
	for t.rng.Float64() > 1.0/float64(t.spec.SeqRun) {
		t.run++
		if t.run > 8*t.spec.SeqRun {
			break
		}
	}
	t.runLen = t.run
}

func (t *refTrace) Next() Access {
	if t.histN > 0 && t.rng.Float64() < t.spec.Reuse {
		vaddr := t.hist[t.rng.Intn(t.histN)]
		return Access{
			VAddr: vaddr,
			Write: t.rng.Float64() < t.spec.WriteFrac,
			Gap:   t.gap(),
		}
	}
	vaddr := (t.vbase+t.curPage)*config.PageSize + uint64(t.curBlock*config.BlockSize)
	t.hist[t.histNext] = vaddr
	t.histNext = (t.histNext + 1) % len(t.hist)
	if t.histN < len(t.hist) {
		t.histN++
	}
	a := Access{
		VAddr: vaddr,
		Write: t.rng.Float64() < t.spec.WriteFrac,
		Gap:   t.gap(),
		Dep:   t.run == t.runLen,
	}
	t.run--
	if t.run <= 0 {
		t.jump()
	} else {
		t.curBlock++
		if t.curBlock == 64 {
			t.curBlock = 0
			t.curPage = (t.curPage + 1) % t.spec.FootprintPages
		}
	}
	return a
}

func (t *refTrace) gap() int {
	if t.spec.GapMean <= 0 {
		return 0
	}
	g := 0
	for t.rng.Float64() > 1.0/float64(t.spec.GapMean) {
		g++
		if g > 8*t.spec.GapMean {
			break
		}
	}
	return g
}

// matchRef fails unless the first n accesses of Trace and refTrace agree.
func matchRef(t *testing.T, name string, spec Spec, seed int64, n int) {
	t.Helper()
	got, want := NewTrace(spec, 0x1000, seed), newRefTrace(spec, 0x1000, seed)
	for i := 0; i < n; i++ {
		if g, w := got.Next(), want.Next(); g != w {
			t.Fatalf("%s seed %d access %d: got %+v, reference %+v", name, seed, i, g, w)
		}
	}
}

// TestTraceMatchesReference pins every benchmark's stream to the math/rand
// generator's over the first 200k accesses at three seeds.
func TestTraceMatchesReference(t *testing.T) {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec, _ := SpecFor(name)
		for _, seed := range []int64{1, 42, -7} {
			matchRef(t, name, spec, seed, 200000)
		}
	}
}

// TestTraceMatchesReferenceEdges covers the degenerate knobs: no compute
// gap (no gap draws at all), unit and non-positive run lengths, and an
// empty warm zone.
func TestTraceMatchesReferenceEdges(t *testing.T) {
	base, _ := SpecFor("canneal")
	for _, c := range []struct {
		name string
		edit func(*Spec)
	}{
		{"GapMean=0", func(s *Spec) { s.GapMean = 0 }},
		{"GapMean=-3", func(s *Spec) { s.GapMean = -3 }},
		{"GapMean=1", func(s *Spec) { s.GapMean = 1 }},
		{"SeqRun=1", func(s *Spec) { s.SeqRun = 1 }},
		{"SeqRun=0", func(s *Spec) { s.SeqRun = 0 }},
		{"SeqRun=-2", func(s *Spec) { s.SeqRun = -2 }},
		{"WarmPages=0", func(s *Spec) { s.WarmPages = 0 }},
		{"Reuse=0,WriteFrac=1", func(s *Spec) { s.Reuse, s.WriteFrac = 0, 1 }},
	} {
		spec := base
		c.edit(&spec)
		for _, seed := range []int64{1, 42, -7} {
			matchRef(t, c.name, spec, seed, 50000)
		}
	}
}
