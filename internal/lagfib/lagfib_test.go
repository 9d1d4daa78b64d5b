package lagfib

import (
	"math"
	"math/rand"
	"testing"
)

// seeds covers the zero and negative seeds, the values either side of
// Seed's reduction modulo 2^31-1, and the extremes of int64.
var seeds = []int64{0, 1, 42, -1, 1<<31 - 1, 1<<31 + 4, 1 << 40, math.MinInt64}

const draws = 1 << 20

func newSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// TestStreamsMatchMathRand compares each copied method against math/rand,
// one method per stream, over a million draws per seed.
func TestStreamsMatchMathRand(t *testing.T) {
	methods := []struct {
		name string
		got  func(s *Source) int64
		want func(r *rand.Rand) int64
	}{
		{"Int63", func(s *Source) int64 { return s.Int63() }, func(r *rand.Rand) int64 { return r.Int63() }},
		{"Uint64", func(s *Source) int64 { return int64(s.Uint64()) }, func(r *rand.Rand) int64 { return int64(r.Uint64()) }},
		{"Float64", func(s *Source) int64 { return int64(math.Float64bits(s.Float64())) },
			func(r *rand.Rand) int64 { return int64(math.Float64bits(r.Float64())) }},
		{"Intn/64", func(s *Source) int64 { return int64(s.Intn(64)) }, func(r *rand.Rand) int64 { return int64(r.Intn(64)) }},
		{"Intn/7", func(s *Source) int64 { return int64(s.Intn(7)) }, func(r *rand.Rand) int64 { return int64(r.Intn(7)) }},
		{"Intn/1e9+7", func(s *Source) int64 { return int64(s.Intn(1e9 + 7)) }, func(r *rand.Rand) int64 { return int64(r.Intn(1e9 + 7)) }},
		{"Intn/2^40+3", func(s *Source) int64 { return int64(s.Intn(1<<40 + 3)) }, func(r *rand.Rand) int64 { return int64(r.Intn(1<<40 + 3)) }},
		{"Int63n/1024", func(s *Source) int64 { return s.Int63n(1024) }, func(r *rand.Rand) int64 { return r.Int63n(1024) }},
		{"Int63n/73728", func(s *Source) int64 { return s.Int63n(73728) }, func(r *rand.Rand) int64 { return r.Int63n(73728) }},
		// Just over 2^62: half of all draws are rejected and redrawn.
		{"Int63n/2^62+1", func(s *Source) int64 { return s.Int63n(1<<62 + 1) }, func(r *rand.Rand) int64 { return r.Int63n(1<<62 + 1) }},
	}
	for _, m := range methods {
		for _, seed := range seeds {
			s, r := newSource(seed), rand.New(rand.NewSource(seed))
			for i := 0; i < draws; i++ {
				if g, w := m.got(s), m.want(r); g != w {
					t.Fatalf("%s seed %d draw %d: got %d, math/rand %d", m.name, seed, i, g, w)
				}
			}
		}
	}
}

// TestInterleavedMatchesMathRand mixes every method in one stream, as the
// trace generator does, so a method that consumed one draw too many or
// too few would desynchronize everything after it.
func TestInterleavedMatchesMathRand(t *testing.T) {
	for _, seed := range seeds {
		s, r := newSource(seed), rand.New(rand.NewSource(seed))
		pick := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < draws; i++ {
			var g, w float64
			switch pick.Intn(5) {
			case 0:
				g, w = s.Float64(), r.Float64()
			case 1:
				n := 1 + pick.Intn(100)
				g, w = float64(s.Intn(n)), float64(r.Intn(n))
			case 2:
				n := 1 + pick.Int63n(1<<40)
				g, w = float64(s.Int63n(n)), float64(r.Int63n(n))
			case 3:
				g, w = float64(s.Int63()), float64(r.Int63())
			case 4:
				p := pick.Float64()
				g, w = b2f(s.Less(Below(p))), b2f(r.Float64() < p)
			}
			if g != w {
				t.Fatalf("seed %d draw %d: got %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func f64(x int64) float64 { return float64(x) / (1 << 63) }

// TestCutsAreTight checks each cut at T-1 and T: T is the first accepted
// draw on the far side of p, and T-1 is still on the near side.
func TestCutsAreTight(t *testing.T) {
	if f64(Resample) != 1 || f64(Resample-1) >= 1 {
		t.Fatalf("Resample %d is not where x/2^63 first rounds to 1", int64(Resample))
	}
	for _, p := range []float64{1.0 / 2, 1.0 / 30, 1.0 / 132, 0.03, 0.01, 1.0} {
		a := Above(p)
		if a < Resample && !(f64(a) > p) {
			t.Errorf("Above(%v) = %d: draw does not exceed p", p, a)
		}
		if a > 0 && f64(a-1) > p {
			t.Errorf("Above(%v) = %d: draw %d already exceeds p", p, a, a-1)
		}
		b := Below(p)
		if b < Resample && f64(b) < p {
			t.Errorf("Below(%v) = %d: draw still below p", p, b)
		}
		if b > 0 && !(f64(b-1) < p) {
			t.Errorf("Below(%v) = %d: draw %d not below p", p, b, b-1)
		}
	}
	// A dyadic p is hit exactly, by every draw that rounds to it: 2^62-2^8
	// and 2^62+2^9 are the ties either side, each rounding to even.
	if a, b := Above(0.5), Below(0.5); b != 1<<62-1<<8 || a != 1<<62+1<<9+1 {
		t.Errorf("p=0.5: Above %d, Below %d; want 2^62+2^9+1 and 2^62-2^8", a, b)
	}
	if Above(1) != Resample || Below(1) != Resample {
		t.Errorf("p=1: Above %d, Below %d, want both Resample", Above(1), Below(1))
	}
	if Above(math.NaN()) != Resample || Below(math.NaN()) != 0 {
		t.Errorf("NaN: Above %d, Below %d, want Resample and 0", Above(math.NaN()), Below(math.NaN()))
	}
}

// TestCountMatchesFloat64Loop compares Count with the loop it replaces,
// run on math/rand, and checks both streams stay aligned afterwards.
func TestCountMatchesFloat64Loop(t *testing.T) {
	cases := []struct {
		p     float64
		limit int
	}{
		{1.0 / 30, 241}, {1.0 / 132, 1057}, {1.0 / 2, 16}, {1.0 / 18, 144},
		{1, 8}, {0.03, 0}, {1e-9, 5000}, {0.5, 1},
	}
	for _, c := range cases {
		cut := Above(c.p)
		for _, seed := range seeds {
			s, r := newSource(seed), rand.New(rand.NewSource(seed))
			calls := 0
			for drawn := 0; drawn < draws; calls++ {
				want := 0
				for want < c.limit && r.Float64() > c.p {
					want++
				}
				got := s.Count(cut, c.limit)
				if got != want {
					t.Fatalf("p=%v limit=%d seed %d call %d: Count %d, loop %d", c.p, c.limit, seed, calls, got, want)
				}
				if a, b := s.Int63(), r.Int63(); a != b {
					t.Fatalf("p=%v limit=%d seed %d call %d: streams diverged after Count", c.p, c.limit, seed, calls)
				}
				drawn += want + 2
			}
		}
	}
}

// rigged returns a seeded Source whose k-th draw (1-based, k < 273) will
// be x: a fresh register has tap 0 and feed 334, so draw k adds vec[607-k]
// into vec[334-k], and no earlier draw touches either word.
func rigged(k int, x int64) Source {
	s := newSource(7)
	s.vec[rngLen-rngTap-k] = x - s.vec[rngLen-k]
	return *s
}

// TestResampleDraw builds a register whose third draw is at or above
// Resample, which Float64 rounds to 1.0 and skips. Less and Count must
// skip it too, consuming the same draws.
func TestResampleDraw(t *testing.T) {
	for _, x := range []int64{Resample, Resample + 5, rngMask, -1, Resample - 1} {
		ref := rigged(3, x)
		ref.Int63()
		ref.Int63()
		if got := ref.Int63(); got != x&rngMask {
			t.Fatalf("rigged draw = %d, want %d", got, x&rngMask)
		}
		rigs := rigged(3, x)
		want := []float64{rigs.Float64(), rigs.Float64(), rigs.Float64(), rigs.Float64()}
		if skip := x&rngMask >= Resample; skip == (want[2] == f64(x&rngMask)) {
			t.Fatalf("x=%d: Float64 returned %v for the third value, skip=%v", x, want[2], skip)
		}

		for _, p := range []float64{1e-12, 0.5, 1 - 1e-12} {
			s := rigged(3, x)
			for i, f := range want {
				if got := s.Less(Below(p)); got != (f < p) {
					t.Fatalf("x=%d p=%v value %d: Less %v, Float64 %v", x, p, i, got, f)
				}
			}
			if s != rigs {
				t.Fatalf("x=%d p=%v: Less consumed a different number of draws", x, p)
			}
		}

		// Count with every value above the cut runs into the rigged draw
		// mid-stretch and must step over it without counting it.
		for _, limit := range []int{2, 3, 4, 6} {
			s, r := rigged(3, x), rigged(3, x)
			want := 0
			for want < limit && r.Float64() > 0 {
				want++
			}
			if got := s.Count(Above(0), limit); got != want {
				t.Fatalf("x=%d limit %d: Count %d, Float64 loop %d", x, limit, got, want)
			}
			if s != r {
				t.Fatalf("x=%d limit %d: Count left a different register than the Float64 loop", x, limit)
			}
		}
	}
}
