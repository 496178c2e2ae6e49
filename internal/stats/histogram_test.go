package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram not zeroed")
	}
}

func TestHistogramQuantilesApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var h Histogram
	var vals []float64
	for i := 0; i < 20000; i++ {
		// Latency-like distribution: base + exponential tail.
		v := 60 + rng.ExpFloat64()*80
		h.Add(v)
		vals = append(vals, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := h.Quantile(q)
		want := Percentile(vals, q)
		// Bucket resolution is 8%; allow 10%.
		if got < want*0.90 || got > want*1.10 {
			t.Errorf("q%.2f: histogram %.1f exact %.1f", q, got, want)
		}
	}
}

func TestHistogramMonotoneQuantiles(t *testing.T) {
	f := func(raw []uint16) bool {
		var h Histogram
		for _, r := range raw {
			h.Add(float64(r))
		}
		if h.N() == 0 {
			return true
		}
		last := 0.0
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			v := h.Quantile(q)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileExact(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if p := Percentile(vals, 0.5); p != 50 {
		t.Errorf("p50 = %v", p)
	}
	if p := Percentile(vals, 1.0); p != 100 {
		t.Errorf("p100 = %v", p)
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
}
