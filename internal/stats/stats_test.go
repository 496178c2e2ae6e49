package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 {
		t.Fatal("empty sample not zeroed")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	// Known population: sample variance = 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("Var = %v", s.Var())
	}
}

func TestSampleSingle(t *testing.T) {
	var s Sample
	s.Add(3)
	if s.Var() != 0 || s.StdDev() != 0 {
		t.Error("single observation should have zero variance")
	}
}

func TestBatches(t *testing.T) {
	b := NewBatches(10)
	for i := 0; i < 100; i++ {
		b.Add(float64(i % 10))
	}
	if b.NumBatches() != 10 {
		t.Fatalf("batches = %d", b.NumBatches())
	}
	// Every batch holds 0..9, mean 4.5; CI width ~0.
	if b.Mean() != 4.5 {
		t.Errorf("mean = %v", b.Mean())
	}
	if hw := b.HalfWidth95(); hw > 1e-9 {
		t.Errorf("half-width = %v want ~0", hw)
	}
}

func TestBatchesCIShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small := NewBatches(100)
	big := NewBatches(100)
	for i := 0; i < 2000; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 40000; i++ {
		big.Add(rng.NormFloat64())
	}
	if small.HalfWidth95() <= big.HalfWidth95() {
		t.Errorf("CI did not shrink with more data: %v vs %v", small.HalfWidth95(), big.HalfWidth95())
	}
}

func TestBatchesIncomplete(t *testing.T) {
	b := NewBatches(100)
	b.Add(1)
	if b.NumBatches() != 0 {
		t.Error("incomplete batch counted")
	}
	if !math.IsInf(b.HalfWidth95(), 1) {
		t.Error("half-width should be infinite with <2 batches")
	}
}

func TestRun(t *testing.T) {
	r := NewRun(256, 50)
	for i := 0; i < 100; i++ {
		r.Record(100+float64(i%5), 90, 10, 20)
	}
	r.Cycles = 1000
	if r.Latency.N() != 100 || r.NetLatency.Mean() != 90 || r.Hops.Mean() != 10 {
		t.Error("record bookkeeping wrong")
	}
	// 100 msgs * 20 flits / 1000 cycles / 256 nodes.
	want := 2000.0 / 1000.0 / 256.0
	if math.Abs(r.Throughput()-want) > 1e-12 {
		t.Errorf("throughput = %v want %v", r.Throughput(), want)
	}
	if r.Saturated {
		t.Error("a run no guard stopped is marked saturated")
	}
}

// Property: mean lies within [min, max] and variance is non-negative.
func TestQuickSampleInvariants(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep inputs in the magnitude range of real measurements
			// so sumSq cannot overflow.
			v = math.Mod(v, 1e9)
			s.Add(v)
			lo, hi = min(lo, v), max(hi, v)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= lo-1e-9 && m <= hi+1e-9 && s.Var() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
