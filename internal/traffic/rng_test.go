package traffic

import (
	"math/rand"
	"testing"
)

// fibSource must reproduce math/rand's streams bit for bit — simulation
// determinism across the whole repo rests on it.
func TestFibSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40, 89482311} {
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

// The cache must hand out independent states: advancing one clone may not
// perturb another.
func TestFibSourceCloneIndependence(t *testing.T) {
	var a, b fibSource
	seedFib(&a, 42)
	for i := 0; i < 100; i++ {
		a.Uint64()
	}
	seedFib(&b, 42)
	ref := rand.NewSource(42)
	for i := 0; i < 100; i++ {
		if r, g := ref.Int63(), b.Int63(); r != g {
			t.Fatalf("clone diverged at #%d: %d want %d", i, g, r)
		}
	}
}

// TestSeedCacheBounded: the seed cache holds at most maxSeeds expansions
// however many seeds a process sees, and a seed it forgot regenerates the
// stream it produced the first time.
func TestSeedCacheBounded(t *testing.T) {
	const base = 1 << 33 // seeds no other test uses
	var first fibSource
	seedFib(&first, base)
	want := first.Uint64()
	var s fibSource
	for i := int64(1); i <= maxSeeds+10; i++ {
		seedFib(&s, base+i)
	}
	if n := seedCache.Len(); n != maxSeeds {
		t.Fatalf("seed cache holds %d states after %d distinct seeds, want the cap %d", n, maxSeeds+11, maxSeeds)
	}
	if _, ok := seedCache.Load(base); ok {
		t.Fatal("the oldest seed was not evicted")
	}
	seedFib(&s, base)
	if got := s.Uint64(); got != want {
		t.Errorf("evicted seed regenerated a different stream: %d, want %d", got, want)
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
