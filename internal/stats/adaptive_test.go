package stats

import (
	"math"
	"testing"

	"lapses/internal/traffic"
)

// rng returns the traffic generator the simulator itself injects with,
// so these tests exercise the adaptive estimator on the exact random
// streams production runs see.
func rng(seed int64) func() float64 {
	r := traffic.NewInjector(1, seed).RNG()
	return r.Float64
}

// groupBy5 batches a raw series into MSER-5 means.
func groupBy5(xs []float64) []float64 {
	var out []float64
	for i := 0; i+5 <= len(xs); i += 5 {
		s := 0.0
		for _, v := range xs[i : i+5] {
			s += v
		}
		out = append(out, s/5)
	}
	return out
}

// TestMser5DeterministicRamp pins the truncation point on a series with a
// known transient: a strictly decreasing ramp over the first 100
// observations, then a constant steady state. Every cut inside the
// constant region scores zero, so MSER must pick the shallowest cut that
// clears the ramp exactly.
func TestMser5DeterministicRamp(t *testing.T) {
	t.Parallel()
	var xs []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, 1000-10*float64(i)) // transient: 1000 -> 10
	}
	for i := 0; i < 400; i++ {
		xs = append(xs, 5) // steady state
	}
	d, ok := Mser5(groupBy5(xs))
	if !ok {
		t.Fatal("MSER-5 rejected a series with a cleared transient")
	}
	if d != 20 { // 100 observations / 5 per batch
		t.Fatalf("truncation point = %d batches, want 20", d)
	}
}

// TestMser5StationarySeries: with no transient at all, the rule should
// cut at most a token prefix.
func TestMser5StationarySeries(t *testing.T) {
	t.Parallel()
	next := rng(11)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 100 + 10*next()
	}
	d, ok := Mser5(groupBy5(xs))
	if !ok {
		t.Fatal("MSER-5 rejected a stationary series")
	}
	if max := len(xs) / 5 / 10; d > max {
		t.Fatalf("truncation point = %d batches on stationary data, want <= %d", d, max)
	}
}

// TestMser5RejectsUnfinishedTransient: a series that is still ramping at
// its end has its MSER minimum in the second half, which the rule must
// refuse (returning ok=false) rather than produce a bogus estimate.
func TestMser5RejectsUnfinishedTransient(t *testing.T) {
	t.Parallel()
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 1000 - float64(i) // never levels off
	}
	if d, ok := Mser5(groupBy5(xs)); ok {
		t.Fatalf("MSER-5 accepted an unfinished transient (d=%d)", d)
	}
}

// TestAdaptiveTruncatesRamp runs the full controller end to end on the
// ramp-then-constant series: it must converge at the second eligible
// check (the first passing one plus its stability confirmation), report
// the exact truncation point, and bound the measured window to the
// steady-state span.
func TestAdaptiveTruncatesRamp(t *testing.T) {
	t.Parallel()
	a := NewAdaptive(AdaptiveConfig{MinSamples: 600, CheckEvery: 600, MaxSamples: 6000})
	for i := 0; i < 6000; i++ {
		v := 5.0
		if i < 100 {
			v = 1000 - 10*float64(i)
		}
		a.Add(v, 1, int64(i))
		if a.Stopped() {
			break
		}
	}
	if !a.Converged() {
		t.Fatal("constant steady state did not converge")
	}
	if a.N() != 1200 {
		t.Fatalf("stopped after %d samples, want 1200 (first check + confirmation)", a.N())
	}
	est := a.Estimate()
	if est.Mean != 5 || est.HalfWidth != 0 {
		t.Fatalf("estimate = %+v, want mean 5 half-width 0", est)
	}
	if est.Truncated != 100 {
		t.Fatalf("truncated %d observations, want 100", est.Truncated)
	}
	// Window: from the last truncated observation (time 99) to the stop
	// (time 1199).
	if a.MeasuredCycles() != 1100 {
		t.Fatalf("measured window = %d cycles, want 1100", a.MeasuredCycles())
	}
}

// TestAdaptiveBatchMeansAR1 checks the estimator against a closed-form
// property of a known AR(1) process x_t = phi*x_{t-1} + eps: positive
// autocorrelation inflates the variance of the sample mean by
// (1+phi)/(1-phi) over the iid formula, so the batch-means half-width
// must be well above the naive iid half-width (which is exactly the
// failure mode batch means exist to fix), and near the theoretical
// inflation.
func TestAdaptiveBatchMeansAR1(t *testing.T) {
	t.Parallel()
	const phi = 0.8
	const n = 100000
	next := rng(7)
	a := NewAdaptive(AdaptiveConfig{RelTol: 1e-9, MinSamples: n, MaxSamples: n, CheckEvery: n})
	var naive Sample
	x := 0.0
	for i := 0; i < n; i++ {
		eps := next() - 0.5
		x = phi*x + eps
		v := 100 + x
		a.Add(v, 1, int64(i))
		naive.Add(v)
	}
	a.Finalize()
	est := a.Estimate()
	if est.Used == 0 {
		t.Fatal("no estimate formed")
	}
	if math.Abs(est.Mean-100) > 1 {
		t.Fatalf("mean = %.3f, want ~100", est.Mean)
	}
	naiveHW := 1.96 * naive.StdDev() / math.Sqrt(float64(naive.N()))
	inflation := est.HalfWidth / naiveHW
	// Theory: sqrt((1+phi)/(1-phi)) = 3.0 for phi=0.8. Batch means with
	// 20 macro batches is a noisy estimator of it; accept a broad but
	// decisive band (the naive CI would sit at 1.0).
	if inflation < 1.8 || inflation > 4.5 {
		t.Fatalf("AR(1) CI inflation = %.2f (hw %.4f vs naive %.4f), want ~3.0 in [1.8, 4.5]",
			inflation, est.HalfWidth, naiveHW)
	}
}

// TestAdaptiveCICoverage replays many independent stationary series and
// checks that the reported 95% interval actually covers the true mean at
// roughly its nominal rate. The normal approximation over 20 batch means
// loses a little coverage; 85% is the regression floor.
func TestAdaptiveCICoverage(t *testing.T) {
	t.Parallel()
	const reps = 200
	const n = 3000
	const trueMean = 100.0
	covered := 0
	for rep := 0; rep < reps; rep++ {
		next := rng(1000 + int64(rep))
		a := NewAdaptive(AdaptiveConfig{RelTol: 1e-9, MinSamples: n, MaxSamples: n, CheckEvery: n})
		for i := 0; i < n; i++ {
			a.Add(trueMean+200*(next()-0.5), 1, int64(i))
		}
		a.Finalize()
		est := a.Estimate()
		if est.Used == 0 {
			t.Fatalf("rep %d: no estimate", rep)
		}
		if math.Abs(est.Mean-trueMean) <= est.HalfWidth {
			covered++
		}
	}
	if frac := float64(covered) / reps; frac < 0.85 {
		t.Fatalf("95%% CI covered the true mean in %.0f%% of %d replications, want >= 85%%", frac*100, reps)
	}
}

// TestAdaptiveStopsEarlyOnTightSeries: a low-variance series must
// converge well before the ceiling; a high-variance one must run to it
// and report no convergence.
func TestAdaptiveStopsEarlyOnTightSeries(t *testing.T) {
	t.Parallel()
	next := rng(3)
	tight := NewAdaptive(AdaptiveConfig{RelTol: 0.05, MinSamples: 400, CheckEvery: 200, MaxSamples: 50000})
	i := int64(0)
	for !tight.Stopped() {
		tight.Add(100+next(), 1, i)
		i++
	}
	if !tight.Converged() || tight.N() >= 50000 {
		t.Fatalf("tight series: converged=%v after %d samples", tight.Converged(), tight.N())
	}

	loose := NewAdaptive(AdaptiveConfig{RelTol: 1e-6, MinSamples: 400, CheckEvery: 200, MaxSamples: 2000})
	i = 0
	for !loose.Stopped() {
		loose.Add(1000*next(), 1, i)
		i++
	}
	if loose.Converged() || loose.N() != 2000 {
		t.Fatalf("loose series: converged=%v after %d samples, want ceiling stop at 2000", loose.Converged(), loose.N())
	}
}

// TestAdaptiveStaleEstimateCleared: a series that looks stationary early
// but then drifts must not end with the early snapshot as its estimate —
// once MSER rejects the drifting series, the estimate clears and readers
// fall back to whole-span statistics.
func TestAdaptiveStaleEstimateCleared(t *testing.T) {
	t.Parallel()
	next := rng(9)
	a := NewAdaptive(AdaptiveConfig{RelTol: 1e-9, MinSamples: 1000, CheckEvery: 1000, MaxSamples: 8000})
	for i := 0; i < 8000 && !a.Stopped(); i++ {
		v := 100 + next()
		if i >= 2000 {
			v += float64(i-2000) * 0.5 // drift toward saturation
		}
		a.Add(v, 1, int64(i))
	}
	a.Finalize()
	if a.Converged() {
		t.Fatal("drifting series converged")
	}
	if est := a.Estimate(); est.Used != 0 {
		t.Fatalf("drifting series kept a stale estimate: %+v", est)
	}
	if a.MeasuredCycles() != 0 || a.WindowFlits() != 0 {
		t.Fatalf("stale window survived: %d cycles, %d flits", a.MeasuredCycles(), a.WindowFlits())
	}
}

// TestAdaptiveDeterminism: the controller is a pure function of its
// input sequence — two replays must agree in every reported field.
func TestAdaptiveDeterminism(t *testing.T) {
	t.Parallel()
	run := func() *Adaptive {
		next := rng(42)
		a := NewAdaptive(AdaptiveConfig{RelTol: 0.02, MinSamples: 500, CheckEvery: 250, MaxSamples: 20000})
		for i := 0; !a.Stopped(); i++ {
			a.Add(50+10*next(), 1, int64(3*i))
		}
		return a
	}
	x, y := run(), run()
	if x.N() != y.N() || x.Converged() != y.Converged() ||
		x.Estimate() != y.Estimate() || x.MeasuredCycles() != y.MeasuredCycles() {
		t.Fatalf("replays diverged:\n%+v %v %d\n%+v %v %d",
			x.Estimate(), x.Converged(), x.MeasuredCycles(),
			y.Estimate(), y.Converged(), y.MeasuredCycles())
	}
}

// TestAdaptiveConfigNormalize pins the defaulting rules the core config
// keys by (two configs resolving to the same rule must share a key).
func TestAdaptiveConfigNormalize(t *testing.T) {
	t.Parallel()
	c := AdaptiveConfig{}.Normalize()
	if c.RelTol != 0.05 || c.MaxSamples != 100000 || c.MinSamples != 5000 ||
		c.CheckEvery != 2500 {
		t.Fatalf("zero-value defaults = %+v", c)
	}
	d := AdaptiveConfig{MaxSamples: 1000}.Normalize()
	if d.MinSamples != 200 || d.CheckEvery != 250 {
		t.Fatalf("small-ceiling defaults = %+v", d)
	}
	e := AdaptiveConfig{MinSamples: 500, MaxSamples: 100}.Normalize()
	if e.MinSamples != 100 {
		t.Fatalf("floor not clamped to ceiling: %+v", e)
	}
}
