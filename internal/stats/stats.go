// Package stats collects the latency and throughput measurements the
// paper's evaluation reports: average message latency versus normalized
// load, with warm-up exclusion, batch-means confidence intervals, and the
// saturation flag behind Table 4's "Sat." marker.
package stats

import "math"

// Sample accumulates a scalar series (latencies, hop counts, queue depths).
// The zero value is an empty sample ready to use.
type Sample struct {
	n          int64
	sum, sumSq float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the observation count.
func (s *Sample) N() int64 { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Var returns the unbiased sample variance.
func (s *Sample) Var() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := (s.sumSq - float64(s.n)*m*m) / float64(s.n-1)
	if v < 0 {
		return 0 // numeric noise
	}
	return v
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Var()) }

// Batches implements the method of batch means for steady-state confidence
// intervals: observations are grouped into fixed-size batches and the
// batch means treated as independent samples.
type Batches struct {
	size  int64
	cur   Sample
	means Sample
}

// NewBatches groups observations into batches of the given size.
func NewBatches(size int64) *Batches {
	if size < 1 {
		panic("stats: batch size < 1")
	}
	return &Batches{size: size}
}

// Add records one observation.
func (b *Batches) Add(v float64) {
	b.cur.Add(v)
	if b.cur.N() == b.size {
		b.means.Add(b.cur.Mean())
		b.cur = Sample{}
	}
}

// NumBatches returns the number of completed batches.
func (b *Batches) NumBatches() int64 { return b.means.N() }

// Mean returns the grand mean over completed batches.
func (b *Batches) Mean() float64 { return b.means.Mean() }

// HalfWidth95 returns the 95% confidence half-width of the mean using a
// normal approximation over batch means (adequate for the >=10 batches the
// harness uses).
func (b *Batches) HalfWidth95() float64 {
	k := b.means.N()
	if k < 2 {
		return math.Inf(1)
	}
	return 1.96 * b.means.StdDev() / math.Sqrt(float64(k))
}

// Run aggregates one simulation run's results.
type Run struct {
	// Latency is message latency from generation to tail delivery,
	// including source queueing.
	Latency Sample
	// NetLatency is measured from header injection into the source
	// router, excluding source queueing.
	NetLatency Sample
	// Hops counts link traversals per message.
	Hops Sample
	// LatencyBatches supports confidence intervals on Latency.
	LatencyBatches *Batches
	// LatencyHist records the latency distribution for percentiles.
	LatencyHist Histogram

	// DeliveredFlits counts flits delivered during measurement.
	DeliveredFlits int64
	// Cycles is the measured simulation span.
	Cycles int64
	// Nodes is the network size, for per-node normalization.
	Nodes int

	// Saturated marks runs that hit the saturation guard: the paper
	// prints "Sat." instead of a latency.
	Saturated bool
	// SatReason explains which guard tripped.
	SatReason string
}

// NewRun returns a run collector with the given latency batch size.
func NewRun(nodes int, batchSize int64) *Run {
	return &Run{Nodes: nodes, LatencyBatches: NewBatches(batchSize)}
}

// Record adds one delivered message's measurements.
func (r *Run) Record(latency, netLatency float64, hops int, flits int) {
	r.Latency.Add(latency)
	r.NetLatency.Add(netLatency)
	r.Hops.Add(float64(hops))
	r.LatencyBatches.Add(latency)
	r.LatencyHist.Add(latency)
	r.DeliveredFlits += int64(flits)
}

// Throughput returns delivered flits per node per cycle over the measured
// span.
func (r *Run) Throughput() float64 {
	if r.Cycles == 0 || r.Nodes == 0 {
		return 0
	}
	return float64(r.DeliveredFlits) / float64(r.Cycles) / float64(r.Nodes)
}
