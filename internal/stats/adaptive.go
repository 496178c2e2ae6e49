package stats

// Adaptive measurement: instead of a fixed warmup/measure message budget,
// a run feeds every delivered latency into an Adaptive controller that
// (a) truncates the initialization transient statistically with the
// MSER-5 rule and (b) stops the run as soon as the 95% confidence
// half-width of the truncated mean falls below a relative tolerance at
// two consecutive checks whose estimates agree (the confirmation guards
// against a deceptively tight interval on a series that is still
// drifting) — with hard floor and ceiling budgets so a pathological
// series can neither stop instantly nor run forever. The controller is purely
// deterministic: the same observation sequence (values and times)
// produces the same truncation point, the same estimate, and the same
// stopping cycle, so adaptive runs retain the simulator's bit-identical
// reproducibility (the network reports deliveries to it in one serial
// execution order).
//
// MSER-5 (White et al.): group the raw series into consecutive batches
// of five observations and pick the truncation point d (in batches) that
// minimizes the squared standard error of the remaining batch means,
//
//	MSER(d) = sum_{j>d} (Z_j - mean_{j>d})^2 / (m-d)^2.
//
// The division by (m-d)^2 — not (m-d) — is what penalizes throwing away
// data: truncating deeper must reduce the variance enough to pay for the
// shorter series. A minimum in the second half of the series means the
// transient has not cleared yet; the rule then refuses to truncate and
// the controller keeps measuring.

import "math"

// mser5MinTail is the absolute floor on retained batches; mser5Tail
// additionally scales the floor with the series so the statistic is
// evaluated only where it is stable. A short tail has a high-variance
// MSER value: a fluke dip at, say, the last five batches would otherwise
// win the argmin, land in the series' second half, and spuriously
// reject a perfectly stationary series.
const mser5MinTail = 5

func mser5Tail(m int) int {
	if t := m / 5; t > mser5MinTail {
		return t
	}
	return mser5MinTail
}

// Mser5 returns the truncation point, in batches, chosen by the MSER rule
// over a series of batch means (the caller batches raw observations, by
// five for classic MSER-5). ok is false when the series is too short to
// evaluate or the minimum lies in the second half of the series — the
// standard "transient not over" rejection, in which case the series
// cannot support a steady-state estimate yet.
func Mser5(batchMeans []float64) (trunc int, ok bool) {
	m := len(batchMeans)
	if m < 2*mser5MinTail {
		return 0, false
	}
	// One backward pass accumulates the suffix sums that give the sum of
	// squared deviations of every tail in O(1) each.
	best, bestD := math.Inf(1), -1
	minTail := mser5Tail(m)
	var s1, s2 float64
	for d := m - 1; d >= 0; d-- {
		z := batchMeans[d]
		s1 += z
		s2 += float64(z * z) // rounded before the sum: no build fuses it (Go spec, floating-point operators)
		k := float64(m - d)
		if m-d < minTail {
			continue
		}
		sse := s2 - s1*s1/k
		if sse < 0 {
			sse = 0 // numeric noise on constant tails
		}
		// <= so ties go to the smallest d (the loop runs d downward):
		// a constant steady state scores zero at every cut inside it,
		// and the right answer is the shallowest one.
		if v := sse / (k * k); v <= best {
			best, bestD = v, d
		}
	}
	if bestD < 0 || bestD > m/2 {
		return 0, false
	}
	return bestD, true
}

// AdaptiveConfig parameterizes the stopping rule. The zero value is
// usable: Normalize fills every field with its default.
type AdaptiveConfig struct {
	// RelTol is the target relative 95% confidence half-width of the
	// truncated latency mean: measurement stops once
	// halfwidth <= RelTol * mean. Default 0.05.
	RelTol float64
	// MinSamples is the floor: no stopping decision before this many
	// observations. Default MaxSamples/20, at least 200.
	MinSamples int
	// MaxSamples is the hard ceiling; reaching it stops the run whether
	// or not the interval converged. Default 100000.
	MaxSamples int
	// CheckEvery is the re-evaluation cadence in observations; each check
	// is one O(batches) pass. Default max(MinSamples/2, 250).
	CheckEvery int
}

// macroBatches is the macro-batch count for the confidence interval over
// the truncated series.
const macroBatches = 20

// Normalize returns the config with every unset field defaulted.
func (c AdaptiveConfig) Normalize() AdaptiveConfig {
	if c.RelTol <= 0 {
		c.RelTol = 0.05
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 100000
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.MaxSamples / 20
		if c.MinSamples < 200 {
			c.MinSamples = 200
		}
	}
	if c.MinSamples > c.MaxSamples {
		c.MinSamples = c.MaxSamples
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = c.MinSamples / 2
		if c.CheckEvery < 250 {
			c.CheckEvery = 250
		}
	}
	return c
}

// Estimate is the controller's current steady-state latency estimate.
type Estimate struct {
	// Mean and HalfWidth are the truncated batch-means point estimate and
	// its 95% confidence half-width.
	Mean, HalfWidth float64
	// Truncated is how many leading observations the estimate excludes:
	// the MSER-5 transient plus the few oldest post-transient
	// observations dropped for macro-batch alignment. Used is how many
	// observations the estimate covers (a whole number of macro batches).
	Truncated, Used int
}

// Adaptive implements the adaptive stopping rule as a streaming consumer
// of (value, time) observations. It retains one float64 per five
// observations (the MSER-5 batch means), so memory stays negligible even
// at paper-scale sample counts.
type Adaptive struct {
	cfg AdaptiveConfig

	// groups are the completed batch-of-5 means; groupEndAt[i] is the
	// time of the i-th group's last observation, which locates the
	// measured window after truncation, and groupFlits[i] the cumulative
	// flit count at that point, which prices the window's throughput.
	groups     []float64
	groupEndAt []int64
	groupFlits []int64
	curSum     float64
	curN       int
	totalFlits int64

	n               int
	firstAt, lastAt int64
	stopped, conv   bool
	est             Estimate
	measuredCycles  int64
	windowFlits     int64
	sinceCheck      int

	// prevMean is the estimate from the previous check, for the
	// stability confirmation: a single tight interval on a series that
	// is still drifting (queues slowly filling toward saturation) is
	// not convergence, so stopping requires two consecutive checks
	// whose means agree within the tolerance as well.
	prevMean  float64
	prevValid bool
}

// NewAdaptive returns a controller for the (normalized) config.
func NewAdaptive(cfg AdaptiveConfig) *Adaptive {
	return &Adaptive{cfg: cfg.Normalize(), firstAt: -1}
}

// Config returns the normalized configuration in effect.
func (a *Adaptive) Config() AdaptiveConfig { return a.cfg }

// Add feeds one observation — one delivered message's latency, its flit
// count, and the delivery time `at` (monotonically non-decreasing;
// simulation cycles in the harness). Observations after the controller
// has stopped are ignored.
func (a *Adaptive) Add(v float64, flits int, at int64) {
	if a.stopped {
		return
	}
	if a.firstAt < 0 {
		a.firstAt = at
	}
	a.lastAt = at
	a.n++
	a.totalFlits += int64(flits)
	a.curSum += v
	a.curN++
	if a.curN == 5 {
		a.groups = append(a.groups, a.curSum/5)
		a.groupEndAt = append(a.groupEndAt, at)
		a.groupFlits = append(a.groupFlits, a.totalFlits)
		a.curSum, a.curN = 0, 0
	}
	a.sinceCheck++
	if a.n >= a.cfg.MaxSamples {
		a.evaluate()
		a.stopped = true
		return
	}
	if a.n >= a.cfg.MinSamples && a.sinceCheck >= a.cfg.CheckEvery {
		a.sinceCheck = 0
		hit := a.evaluate()
		cur := a.est
		stable := a.prevValid && cur.Used > 0 &&
			math.Abs(cur.Mean-a.prevMean) <= a.cfg.RelTol*cur.Mean
		if cur.Used > 0 {
			a.prevMean, a.prevValid = cur.Mean, true
		}
		if hit && stable {
			a.stopped = true
			a.conv = true
		}
	}
}

// evaluate recomputes the truncated estimate and reports whether the
// relative-half-width target is met. When no estimate can be formed —
// MSER-5 rejects the series (transient not over) or the retained tail
// is too short — any previous estimate is cleared rather than left
// stale: the series has drifted past what that snapshot covered, and
// reporting it as the run's result would bias the headline latency
// toward the early, cheaper prefix. Readers fall back to whole-span
// statistics when Used == 0.
func (a *Adaptive) evaluate() bool {
	d, ok := Mser5(a.groups)
	if !ok {
		a.clearEstimate()
		return false
	}
	tail := a.groups[d:]
	k := macroBatches
	size := len(tail) / k
	if size < 1 {
		a.clearEstimate()
		return false
	}
	// Use the most recent k*size groups: a remainder exists because the
	// series length is arbitrary, and dropping the oldest few groups
	// (the ones nearest the truncated transient) is the conservative
	// side to err on.
	used := tail[len(tail)-k*size:]
	var macro Sample
	var grand float64
	for b := 0; b < k; b++ {
		var s float64
		for _, z := range used[b*size : (b+1)*size] {
			s += z
		}
		macro.Add(s / float64(size))
		grand += s
	}
	mean := grand / float64(k*size)
	hw := 1.96 * macro.StdDev() / math.Sqrt(float64(k))
	startIdx := len(a.groups) - k*size // first used group, >= d
	a.est = Estimate{
		Mean:      mean,
		HalfWidth: hw,
		Truncated: startIdx * 5,
		Used:      k * size * 5,
	}
	// The measured window runs from the end of the last truncated group
	// (the run start when nothing was cut) to the latest observation;
	// the flits delivered inside it price the window's throughput.
	start := a.firstAt
	flitsBefore := int64(0)
	if startIdx > 0 {
		start = a.groupEndAt[startIdx-1]
		flitsBefore = a.groupFlits[startIdx-1]
	}
	a.measuredCycles = a.lastAt - start
	a.windowFlits = a.totalFlits - flitsBefore
	return mean > 0 && hw <= a.cfg.RelTol*mean
}

func (a *Adaptive) clearEstimate() {
	a.est = Estimate{}
	a.measuredCycles = 0
	a.windowFlits = 0
	// The confirmation baseline dies with the estimate: after a drift
	// rejection, a freshly re-formed estimate must earn a new agreeing
	// check of its own, not match a pre-drift snapshot.
	a.prevValid = false
}

// Finalize forces a last evaluation (used when a run ends for an external
// reason — saturation guard, cycle budget — before the controller
// stopped) so Estimate and MeasuredCycles reflect all data seen. It
// never sets Converged: a guard-ended run did not meet the confirmed
// stopping rule, however tight its final interval happens to be — the
// same discipline the ceiling stop in Add applies.
func (a *Adaptive) Finalize() {
	if !a.stopped {
		a.evaluate()
		a.stopped = true
	}
}

// N returns the number of observations consumed.
func (a *Adaptive) N() int { return a.n }

// Stopped reports that measurement should end: the interval converged or
// the ceiling was reached.
func (a *Adaptive) Stopped() bool { return a.stopped }

// Converged reports that the relative half-width target was met (as
// opposed to stopping on the sample ceiling or an external guard).
func (a *Adaptive) Converged() bool { return a.conv }

// Estimate returns the latest truncated steady-state estimate; Used == 0
// means the series never supported one.
func (a *Adaptive) Estimate() Estimate { return a.est }

// MeasuredCycles is the time span of the truncated measurement window:
// from the end of the MSER-truncated transient to the last observation.
// Zero when no estimate was ever formed.
func (a *Adaptive) MeasuredCycles() int64 { return a.measuredCycles }

// WindowFlits is the number of flits delivered inside the measured
// window: WindowFlits/MeasuredCycles is the truncated steady-state
// acceptance rate, free of the cold-start ramp a whole-span throughput
// would fold in.
func (a *Adaptive) WindowFlits() int64 { return a.windowFlits }
