package traffic

import (
	"math"
	"math/rand"
	"testing"

	"lapses/internal/topology"
)

func TestUniformExcludesSelfAndCoversAll(t *testing.T) {
	m := topology.NewMesh(4, 4)
	p := New(Uniform, m)
	rng := rand.New(rand.NewSource(1))
	seen := map[topology.NodeID]bool{}
	for i := 0; i < 5000; i++ {
		d, ok := p.Dest(5, rng)
		if !ok {
			t.Fatal("uniform must always send")
		}
		if d == 5 {
			t.Fatal("uniform sent to self")
		}
		seen[d] = true
	}
	if len(seen) != 15 {
		t.Errorf("uniform covered %d destinations, want 15", len(seen))
	}
}

func TestTranspose(t *testing.T) {
	m := topology.NewMesh(16, 16)
	p := New(Transpose, m)
	d, ok := p.Dest(m.ID(topology.Coord{3, 7}), nil)
	if !ok || d != m.ID(topology.Coord{7, 3}) {
		t.Errorf("transpose(3,7) = %d,%v", d, ok)
	}
	if _, ok := p.Dest(m.ID(topology.Coord{5, 5}), nil); ok {
		t.Error("diagonal node should be silent")
	}
}

func TestBitReversal(t *testing.T) {
	m := topology.NewMesh(16, 16)
	p := New(BitReversal, m)
	// Node 1 = 00000001b reverses to 10000000b = 128.
	d, ok := p.Dest(1, nil)
	if !ok || d != 128 {
		t.Errorf("bitrev(1) = %d,%v want 128", d, ok)
	}
	// Palindromic addresses are silent.
	if _, ok := p.Dest(0, nil); ok {
		t.Error("bitrev(0) should be silent")
	}
}

func TestShuffle(t *testing.T) {
	m := topology.NewMesh(16, 16)
	p := New(Shuffle, m)
	// 10000000b -> 00000001b.
	d, ok := p.Dest(128, nil)
	if !ok || d != 1 {
		t.Errorf("shuffle(128) = %d,%v want 1", d, ok)
	}
	d, ok = p.Dest(3, nil)
	if !ok || d != 6 {
		t.Errorf("shuffle(3) = %d,%v want 6", d, ok)
	}
}

func TestBitComplement(t *testing.T) {
	m := topology.NewMesh(16, 16)
	p := New(BitComplement, m)
	d, ok := p.Dest(0, nil)
	if !ok || d != 255 {
		t.Errorf("complement(0) = %d,%v want 255", d, ok)
	}
}

func TestTornado(t *testing.T) {
	m := topology.NewMesh(8, 8)
	p := New(Tornado, m)
	d, ok := p.Dest(m.ID(topology.Coord{0, 0}), nil)
	if !ok || d != m.ID(topology.Coord{3, 3}) {
		t.Errorf("tornado(0,0) = %d,%v want (3,3)", d, ok)
	}
}

func TestHotspotBias(t *testing.T) {
	m := topology.NewMesh(8, 8)
	p := New(Hotspot, m)
	rng := rand.New(rand.NewSource(2))
	hot := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		d, ok := p.Dest(3, rng)
		if !ok {
			t.Fatal("hotspot must always send")
		}
		if d == 32 {
			hot++
		}
	}
	frac := float64(hot) / trials
	// 10% direct + uniform share.
	if frac < 0.08 || frac > 0.16 {
		t.Errorf("hotspot fraction = %v", frac)
	}
}

func TestNeighborEdgeSilent(t *testing.T) {
	m := topology.NewMesh(4, 4)
	p := New(Neighbor, m)
	if _, ok := p.Dest(3, nil); ok {
		t.Error("east-edge node should be silent")
	}
	d, ok := p.Dest(0, nil)
	if !ok || d != 1 {
		t.Errorf("neighbor(0) = %d,%v want 1", d, ok)
	}
}

func TestPermutationsAreBijections(t *testing.T) {
	m := topology.NewMesh(16, 16)
	for _, k := range []Kind{Transpose, BitReversal, Shuffle, BitComplement} {
		p := New(k, m)
		seen := map[topology.NodeID]bool{}
		for src := topology.NodeID(0); int(src) < m.N(); src++ {
			d, ok := p.Dest(src, nil)
			if !ok {
				continue
			}
			if seen[d] {
				t.Errorf("%s: destination %d hit twice", k, d)
			}
			seen[d] = true
		}
	}
}

func TestInjectorRate(t *testing.T) {
	inj := NewInjector(0.05, 42)
	total := 0
	const cycles = 200000
	for c := int64(0); c < cycles; c++ {
		total += inj.Due(c)
	}
	got := float64(total) / cycles
	if math.Abs(got-0.05) > 0.002 {
		t.Errorf("measured rate %v want 0.05", got)
	}
}

func TestInjectorZeroRate(t *testing.T) {
	inj := NewInjector(0, 1)
	for c := int64(0); c < 1000; c++ {
		if inj.Due(c) != 0 {
			t.Fatal("zero-rate injector fired")
		}
	}
}

func TestInjectorDeterministic(t *testing.T) {
	a, b := NewInjector(0.1, 7), NewInjector(0.1, 7)
	for c := int64(0); c < 5000; c++ {
		if a.Due(c) != b.Due(c) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestMessageRate(t *testing.T) {
	m := topology.NewMesh(16, 16)
	// Load 1.0, 20-flit messages: 0.25/20 = 0.0125 msgs/cycle/node.
	if r := MessageRate(m, 1.0, 20); math.Abs(r-0.0125) > 1e-12 {
		t.Errorf("MessageRate = %v want 0.0125", r)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v failed", k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("expected error")
	}
	// The text form, which flags and the wire use, is the same name.
	for _, k := range Kinds {
		b, err := k.MarshalText()
		var got Kind
		if err != nil || string(b) != k.String() || got.UnmarshalText(b) != nil || got != k {
			t.Errorf("text round trip %v: %q %v -> %v", k, b, err, got)
		}
	}
	if got := Kinds[1]; got.UnmarshalText([]byte("bogus")) == nil {
		t.Error("UnmarshalText accepted an unknown name")
	}
}

// TestHotspotBackgroundExcludesHotNode pins the bugfix: background traffic
// must never land on the hot node (its only inbound bias is the direct
// frac draw), and the hot node's own traffic is uniform over the rest.
func TestHotspotBackgroundExcludesHotNode(t *testing.T) {
	m := topology.NewMesh(8, 8)
	p := New(Hotspot, m)
	hot := topology.NodeID(32)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		src := topology.NodeID(rng.Intn(m.N()))
		d, ok := p.Dest(src, rng)
		if !ok {
			t.Fatal("hotspot must always send")
		}
		if d == src {
			t.Fatalf("node %d sent to itself", src)
		}
		if src == hot && d == hot {
			t.Fatal("hot node sent to itself")
		}
	}
	// From a non-hot source, every hit on the hot node must come from the
	// direct draw: over many trials the hot fraction must match frac
	// closely, with no uniform-background leakage inflating it.
	hits := 0
	const trials = 200000
	for i := 0; i < trials; i++ {
		d, _ := p.Dest(3, rng)
		if d == hot {
			hits++
		}
	}
	frac := float64(hits) / trials
	if math.Abs(frac-0.1) > 0.005 {
		t.Errorf("hot fraction = %v, want 0.1 (background must exclude hot node)", frac)
	}
}

// TestHotspotReceivedDistribution is the chi-square-style regression test:
// with the fix, each non-hot node receives an equal background share and
// the hot node receives exactly the direct frac traffic.
func TestHotspotReceivedDistribution(t *testing.T) {
	m := topology.NewMesh(8, 8)
	p := New(Hotspot, m)
	n := m.N()
	hot := topology.NodeID(32)
	rng := rand.New(rand.NewSource(4))
	recv := make([]int, n)
	const rounds = 4000 // every node sends once per round
	total := 0
	for r := 0; r < rounds; r++ {
		for src := topology.NodeID(0); int(src) < n; src++ {
			d, ok := p.Dest(src, rng)
			if !ok {
				t.Fatal("hotspot must always send")
			}
			recv[d]++
			total++
		}
	}
	// Expected receive probability per destination, summed over sources:
	// hot: 63 sources * 0.1 direct. Non-hot j: background share
	// 0.9/(n-2) from each of the 62 non-hot sources != j, plus 1/(n-1)
	// from the hot node.
	expHot := float64(n-1) * 0.1 * float64(rounds)
	expBg := (float64(n-2)*0.9/float64(n-2) + 1.0/float64(n-1)) * float64(rounds)
	chi2 := 0.0
	for id, got := range recv {
		exp := expBg
		if topology.NodeID(id) == hot {
			exp = expHot
		}
		d := float64(got) - exp
		chi2 += d * d / exp
	}
	// 63 degrees of freedom; 99.9th percentile ~ 103. Generous bound so
	// the test only fails on a real distribution change, not on noise.
	if chi2 > 120 {
		t.Errorf("chi-square = %.1f against fixed model (df=63); received distribution drifted", chi2)
	}
}

func TestHotspotTwoNodeGuard(t *testing.T) {
	m := topology.NewMesh(2) // 1-D, two nodes
	p := New(Hotspot, m)
	rng := rand.New(rand.NewSource(5))
	// Hot node is 1 (N()/2). Node 0 either hits the direct draw or falls
	// silent; it must never panic or send to itself.
	for i := 0; i < 1000; i++ {
		if d, ok := p.Dest(0, rng); ok && d != 1 {
			t.Fatalf("2-node hotspot sent to %d", d)
		}
		if d, ok := p.Dest(1, rng); ok && d != 0 {
			t.Fatalf("2-node hot source sent to %d", d)
		}
	}
}

func TestMMPPMeanRate(t *testing.T) {
	src := NewMMPP(0.05, Burst{OnFrac: 0.25, MeanOn: 100}, 42)
	total := 0
	const cycles = 400000
	for c := int64(0); c < cycles; c++ {
		total += src.Due(c)
	}
	got := float64(total) / cycles
	if math.Abs(got-0.05) > 0.004 {
		t.Errorf("measured mean rate %v want 0.05", got)
	}
}

// TestMMPPBurstier checks the point of the source: at the same mean rate,
// arrivals cluster. The variance of per-window counts must exceed the
// Poisson variance (index of dispersion > 1).
func TestMMPPBurstier(t *testing.T) {
	src := NewMMPP(0.05, Burst{OnFrac: 0.2, MeanOn: 200}, 9)
	const window, nWin = 100, 2000
	counts := make([]float64, nWin)
	for w := 0; w < nWin; w++ {
		c := 0
		for i := 0; i < window; i++ {
			c += src.Due(int64(w*window + i))
		}
		counts[w] = float64(c)
	}
	var mean, m2 float64
	for _, c := range counts {
		mean += c
	}
	mean /= nWin
	for _, c := range counts {
		m2 += (c - mean) * (c - mean)
	}
	varc := m2 / nWin
	if varc/mean < 1.5 {
		t.Errorf("index of dispersion %v; MMPP should be markedly burstier than Poisson (1.0)", varc/mean)
	}
}

func TestMMPPNextAtMatchesDue(t *testing.T) {
	a := NewMMPP(0.02, Burst{OnFrac: 0.3, MeanOn: 50}, 11)
	b := NewMMPP(0.02, Burst{OnFrac: 0.3, MeanOn: 50}, 11)
	for c := int64(0); c < 20000; c++ {
		next, ok := a.NextAt()
		if !ok {
			t.Fatal("positive-rate MMPP reported no next arrival")
		}
		n := a.Due(c)
		if next <= c && n == 0 {
			t.Fatalf("NextAt=%d at cycle %d but Due fired nothing", next, c)
		}
		if next > c && n != 0 {
			t.Fatalf("NextAt=%d at cycle %d but Due fired %d", next, c, n)
		}
		if n != b.Due(c) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestMMPPZeroRate(t *testing.T) {
	src := NewMMPP(0, Burst{OnFrac: 0.5, MeanOn: 10}, 1)
	if _, ok := src.NextAt(); ok {
		t.Error("zero-rate MMPP reported a next arrival")
	}
	for c := int64(0); c < 1000; c++ {
		if src.Due(c) != 0 {
			t.Fatal("zero-rate MMPP fired")
		}
	}
}

func TestMMPPDegeneratesToPoisson(t *testing.T) {
	// OnFrac 1 must behave like a plain Poisson source at the same rate.
	src := NewMMPP(0.05, Burst{OnFrac: 1, MeanOn: 100}, 13)
	total := 0
	const cycles = 200000
	for c := int64(0); c < cycles; c++ {
		total += src.Due(c)
	}
	got := float64(total) / cycles
	if math.Abs(got-0.05) > 0.003 {
		t.Errorf("OnFrac=1 mean rate %v want 0.05", got)
	}
}

func TestBurstValidate(t *testing.T) {
	for _, b := range []Burst{{0, 10}, {-0.1, 10}, {1.5, 10}, {0.5, 0}, {0.5, -3}} {
		if err := b.Validate(); err == nil {
			t.Errorf("Burst%+v should be invalid", b)
		}
	}
	if err := (Burst{OnFrac: 0.25, MeanOn: 100}).Validate(); err != nil {
		t.Errorf("valid burst rejected: %v", err)
	}
}

func TestBitPatternRequiresPow2(t *testing.T) {
	m := topology.NewMesh(3, 3)
	p := New(BitReversal, m)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two network")
		}
	}()
	p.Dest(1, nil)
}
