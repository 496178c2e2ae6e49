package stats

import (
	"math"
	"sort"
)

// Histogram accumulates a latency distribution in exponentially growing
// buckets, cheap enough to run on every message. It reports approximate
// percentiles (exact within one bucket's resolution) — the tail behaviour
// near saturation that a bare mean hides.
type Histogram struct {
	counts []int64
	n      int64
	max    float64
}

// bucketFor maps a value to its bucket: ~8% geometric spacing.
func bucketFor(v float64) int {
	if v < 1 {
		return 0
	}
	return int(math.Log(v)/math.Log(1.08)) + 1
}

// bucketUpper returns the upper bound of bucket b.
func bucketUpper(b int) float64 {
	if b == 0 {
		return 1
	}
	return math.Pow(1.08, float64(b))
}

// Add records one observation (negative values count into bucket 0).
func (h *Histogram) Add(v float64) {
	b := bucketFor(v)
	if b >= len(h.counts) {
		grown := make([]int64, b+16)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// N returns the observation count.
func (h *Histogram) N() int64 { return h.n }

// Quantile returns the approximate q-quantile (0 < q <= 1): the upper
// bound of the bucket containing the q*N-th observation. Returns 0 for an
// empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			u := bucketUpper(b)
			if u > h.max && h.max > 0 {
				return h.max
			}
			return u
		}
	}
	return h.max
}

// Percentile computes an exact percentile of a small sample slice, used by
// tests to validate the histogram approximation.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
