package traffic

import (
	"math"
	"math/rand"
	"testing"

	"lapses/internal/lfib"
)

// A node's stream must reproduce math/rand's bit for bit — simulation
// determinism across the whole repo rests on it. The seeds include
// math/rand's normalisation edge cases, and each consumer draws past the
// generator's expansion at draw 274 and its 607-word wrap.
func TestFibSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40, 89482311, math.MaxInt32, -math.MaxInt32, math.MinInt64, math.MaxInt64} {
		ref := rand.New(rand.NewSource(seed))
		got := NewInjector(0, seed).RNG() // rate 0 draws nothing
		for i := 0; i < 2000; i++ {
			if r, g := ref.Int63(), got.Int63(); r != g {
				t.Fatalf("seed %d: Int63 #%d = %d want %d", seed, i, g, r)
			}
		}
		// Derived distributions exercise Uint64/Int63 consumption paths.
		ref = rand.New(rand.NewSource(seed))
		got = NewInjector(0, seed).RNG()
		for i := 0; i < 2000; i++ {
			if r, g := ref.ExpFloat64(), got.ExpFloat64(); r != g {
				t.Fatalf("seed %d: ExpFloat64 #%d = %v want %v", seed, i, g, r)
			}
			if r, g := ref.Intn(4096), got.Intn(4096); r != g {
				t.Fatalf("seed %d: Intn #%d = %d want %d", seed, i, g, r)
			}
			if r, g := ref.Float64(), got.Float64(); r != g {
				t.Fatalf("seed %d: Float64 #%d = %v want %v", seed, i, g, r)
			}
		}
	}
}

// TestSourcesFootprint pins what a Sources costs in memory that is
// touched: building one and giving every node its first draws writes none
// of the 4.9 KB vectors the generators would expand into (so the pages of
// that slab are never faulted in), a node that draws past the expansion
// writes only its own, and a Reset clears it again.
func TestSourcesFootprint(t *testing.T) {
	const n = 64
	written := func(s *Sources) int {
		dirty := 0
		for i := range s.vecs {
			if s.vecs[i] != (lfib.Vec{}) {
				dirty++
			}
		}
		return dirty
	}
	s := NewSources(n, 0.01, nil, 5)
	for i := 0; i < n; i++ {
		for range 200 {
			s.At(i).RNG().Int63()
		}
	}
	if d := written(s); d != 0 {
		t.Fatalf("%d of %d vectors written by 200 draws per node; want none", d, n)
	}
	for range 100 {
		s.At(3).RNG().Int63()
	}
	if d := written(s); d != 1 || s.vecs[3] == (lfib.Vec{}) {
		t.Fatalf("300 draws on node 3 left %d vectors written; want node 3's alone", d)
	}
	s.Reset(0.01, nil, 6)
	if d := written(s); d != 0 {
		t.Fatalf("%d vectors still written after Reset; want none", d)
	}
}

// TestNewSourcesMatchesSingles: the slab constructor is n single
// constructors — node i's process fires at the cycles, and draws the
// destinations, of NewInjector / NewMMPP seeded seed+i.
func TestNewSourcesMatchesSingles(t *testing.T) {
	const n, rate, seed = 5, 0.02, 77
	burst := &Burst{OnFrac: 0.3, MeanOn: 50}
	for _, b := range []*Burst{nil, burst} {
		srcs := NewSources(n, rate, b, seed)
		for i := 0; i < n; i++ {
			got := srcs.At(i)
			var want Source = NewInjector(rate, seed+int64(i))
			if b != nil {
				want = NewMMPP(rate, *b, seed+int64(i))
			}
			for now := int64(0); now < 2000; now++ {
				ga, gok := got.NextAt()
				wa, wok := want.NextAt()
				if ga != wa || gok != wok || got.Due(now) != want.Due(now) || got.RNG().Int63() != want.RNG().Int63() {
					t.Fatalf("burst=%v node %d diverged from its single-constructor twin at cycle %d", b != nil, i, now)
				}
			}
		}
	}
}
