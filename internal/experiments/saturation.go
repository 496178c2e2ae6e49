package experiments

import (
	"lapses/internal/core"
	"lapses/internal/selection"
	"lapses/internal/sweep"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// Saturation search shared by the saturation-seeking experiments
// (resilience, scaling, congestion) and the claims tests: instead of a
// dense load grid — or a single arbitrarily overdriven point — the
// saturation load is located by bisection over probes built here. An
// experiment declares its searches on its grid (grid.saturation) beside
// its fixed points; grid.run runs the points, then every search in
// lockstep through sweep.BisectAll, so each round of all of them is one
// executor call and Runner.Workers bounds every probe.
//
// Probe methodology. A probe at offered load x runs a reduced fixed-tier
// sample (a fifth of the experiment's budget, floored) under a
// load-scaled cycle budget — three times the injection-limited time the
// sample needs, plus drain slack — and is classified by acceptance: the
// probe is past saturation when a run guard tripped or its delivered
// throughput fell below satAcceptFrac of the offered flit rate
// (sweep.OfferedFracSaturated). The saturation verdict is a
// fixed-horizon acceptance measurement: giving every probe (and the dense
// reference path) the identical horizon is what makes verdicts comparable
// across the load axis.

// satAcceptFrac is the acceptance fraction defining the knee: a network
// delivering less than 85% of what is offered is past saturation. The
// margin below 1.0 absorbs the sub-knee measurement bias of short probe
// samples (the pipeline-fill share of the measured span), which sits
// near 0.95; thresholds closer to it misread the bias as saturation.
const satAcceptFrac = 0.85

// satProbeDivisor shrinks the experiment's sample budget for saturation
// probes: classifying a load needs far fewer messages than estimating
// its latency to a tight CI.
const satProbeDivisor = 5

// SaturationSpec builds the bisection spec locating base's saturation
// load between lo and hi at resolution tol. Experiments declare it
// through grid.saturation, and grid.run runs all of a grid's specs in
// lockstep through sweep.BisectAll; a lone spec runs through
// sweep.Bisect. Probes share the experiment memo cache like every other
// point.
func SaturationSpec(base core.Config, lo, hi, tol float64) sweep.BisectSpec {
	base.Warmup /= satProbeDivisor
	base.Measure /= satProbeDivisor
	if base.Warmup < 100 {
		base.Warmup = 100
	}
	if base.Measure < 1000 {
		base.Measure = 1000
	}
	mesh := base.Mesh()
	nodes := float64(mesh.N())
	sample := float64(base.Warmup + base.Measure)
	// The nominal offered rate assumes every node injects; permutation
	// patterns exclude fixed points (the transpose diagonal, bit-reversal
	// palindromes), so the acceptance threshold is scaled by the
	// pattern's injecting fraction on the healthy mesh.
	return sweep.BisectSpec{
		Lo: lo, Hi: hi, Tol: tol,
		Saturated: sweep.OfferedFracSaturated(mesh, satAcceptFrac*injectingFraction(base.Pattern, mesh)),
		At: func(load float64) core.Config {
			c := base
			c.Load = load
			rate := traffic.MessageRate(mesh, load, c.MsgLen) * nodes
			c.MaxCycles = int64(3*sample/rate) + 6000
			return c
		},
	}
}

// injectingFraction counts the nodes the pattern gives a destination on
// the healthy mesh (fixed points of a permutation inject nothing).
func injectingFraction(k traffic.Kind, m *topology.Mesh) float64 {
	pat := traffic.New(k, m)
	rng := traffic.NewInjector(1, 1).RNG()
	n := 0
	for id := 0; id < m.N(); id++ {
		if _, ok := pat.Dest(topology.NodeID(id), rng); ok {
			n++
		}
	}
	return float64(n) / float64(m.N())
}

// satTol is the search resolution per fidelity: smoke tiers accept a
// coarser knee.
func (f Fidelity) satTol() float64 {
	if f == Quick {
		return 0.04
	}
	return 0.02
}

// satBracket is the initial search bracket per traffic pattern: uniform
// traffic saturates near the bisection normalization, the permutation
// patterns far below it. Bisect expands a wrong bracket on its own; the
// initial guess only prices the first round.
func satBracket(p traffic.Kind) (lo, hi float64) {
	if p == traffic.Uniform {
		return 0.1, 1.0
	}
	return 0.05, 0.7
}

// policies is the policy axis of the resilience, scaling and availability
// experiments: the full LAPSES router (Duato adaptive routing + LRU
// selection) against deterministic routing (XY with static selection,
// which is up*/down* over a damaged mesh).
var policies = []struct {
	name string
	alg  core.Alg
	sel  selection.Kind
}{
	{"adaptive", core.AlgDuato, selection.LRU},
	{"deterministic", core.AlgXY, selection.StaticXY},
}

// Cell is the measurements of one (row, policy) pair of a
// saturation-seeking experiment, filled by the grid recipes below.
type Cell struct {
	// Lat is the moderate-load latency point.
	Lat core.Result
	// Ovr is the fixed-budget overdriven run; its Throughput is the
	// accepted rate under sustained overload.
	Ovr core.Result
	// Sat is the run at the bisection-located saturation load (its
	// Throughput is the sustained acceptance there) and Search the full
	// search outcome; Search.Lo is the saturation load.
	Sat    core.Result
	Search sweep.BisectResult
}

// latency adds base's point at load, scattering into cell.Lat.
func (g *grid) latency(cell *Cell, base core.Config, load float64) {
	base.Load = load
	g.add(base, func(res core.Result) { cell.Lat = res })
}

// overdriven adds base's fixed-budget overdriven run at load, scattering
// into cell.Ovr. The cycle cap ends the run: its Measure is never reached,
// and the latency guard, which waits for a tenth of Measure, never acts.
func (g *grid) overdriven(cell *Cell, base core.Config, load float64, cycles int64) {
	base.Load = load
	base.MaxCycles = cycles
	base.Measure = 1 << 30
	g.add(base, func(res core.Result) { cell.Ovr = res })
}

// saturation adds the search for base's saturation load in [lo, hi] at
// resolution tol, scattering into cell.Search and cell.Sat.
func (g *grid) saturation(cell *Cell, base core.Config, lo, hi, tol float64) {
	g.searches = append(g.searches, SaturationSpec(base, lo, hi, tol))
	g.found = append(g.found, cell)
}

// ovrCycles is the fixed cycle budget of one overdriven run.
func (f Fidelity) ovrCycles() int64 {
	switch f {
	case Quick:
		return 4000
	case Paper:
		return 40000
	}
	return 15000
}
