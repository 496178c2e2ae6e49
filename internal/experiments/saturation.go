package experiments

import (
	"lapses/internal/core"
	"lapses/internal/sweep"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// Saturation search shared by the saturation-seeking experiments
// (resilience, scaling, congestion) and the claims tests: instead of a
// dense load grid — or a single arbitrarily overdriven point — the
// saturation load is located by bisection over probes built here. An
// experiment declares its searches on its grid (grid.search) beside its
// fixed points; grid.run runs the points, then every search in lockstep
// through sweep.BisectAll, so each round of all of them is one executor
// call and Runner.Workers bounds every probe.
//
// Probe methodology. A probe at offered load x runs a reduced fixed-tier
// sample (a fifth of the experiment's budget, floored) under a
// load-scaled cycle budget — three times the injection-limited time the
// sample needs, plus drain slack — and is classified by acceptance: the
// probe is past saturation when a run guard tripped or its delivered
// throughput fell below satAcceptFrac of the offered flit rate
// (sweep.OfferedFracSaturated). Probes deliberately stay on the fixed
// measurement tier even under Fidelity Auto: the saturation verdict is a
// fixed-horizon acceptance measurement, and giving every probe (and the
// dense reference path) the identical horizon is what makes verdicts
// comparable across the load axis.

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
// load between lo and hi at resolution tol. The returned spec runs
// through grid.search or sweep.Bisect with any sweep.Options; probes
// share the experiment memo cache like every other point.
func SaturationSpec(base core.Config, lo, hi, tol float64) sweep.BisectSpec {
	base.Auto = nil // fixed-horizon probes; see the file comment
	base.Warmup /= satProbeDivisor
	base.Measure /= satProbeDivisor
	if base.Warmup < 100 {
		base.Warmup = 100
	}
	if base.Measure < 1000 {
		base.Measure = 1000
	}
	base.SatLatency = 0 // the default guard; probes must not inherit a lifted one
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
