package sweep

// Saturation-point search. The classic way to locate a network's
// saturation load is a dense sweep of the whole load axis — most of
// whose points are either far below saturation (uninformative) or far
// above it (each one burning its full cycle budget before the guard
// trips). Bisect replaces the scan with bracketing plus parallel
// k-section: every round probes a handful of interior loads
// concurrently through the regular sweep engine (so the memo cache and
// the worker pool apply unchanged) and narrows the bracket by a factor
// of Fanout+1. The probe loads are a pure function
// of the bracket — never of the worker count — so the search is
// deterministic for fixed seeds on any pool width, mirroring Run's
// guarantee. SaturationScan is the dense-grid reference path, kept so
// the cycle savings stay measurable (TestBisectCycleReduction pins the
// >= 2x reduction).

import (
	"context"
	"fmt"
	"math"

	"lapses/internal/core"
	"lapses/internal/topology"
)

// BisectSpec describes one saturation search.
type BisectSpec struct {
	// At maps an offered load to the probe configuration classifying it.
	// Probes should carry budgets that make saturation terminal (a
	// bounded MaxCycles) — experiments.SaturationSpec builds such specs.
	At func(load float64) core.Config
	// Lo and Hi bracket the search: Lo is expected sustainable, Hi
	// saturated. When the expectation fails the bracket is expanded a
	// few times before the search gives up.
	Lo, Hi float64
	// Tol is the terminal bracket width (default 0.02).
	Tol float64
	// Fanout is how many interior loads each round probes concurrently;
	// the bracket narrows by Fanout+1 per round (default 3).
	Fanout int
	// Saturated classifies a probe: given the offered load and its
	// result, is the network past saturation? The default accepts only
	// the run's own guards (core.Result.Saturated), which is lax near
	// the knee — OfferedFracSaturated is the sharper standard classifier.
	Saturated func(load float64, r core.Result) bool
}

// OfferedFracSaturated builds the acceptance-based saturation classifier
// for probes on mesh m: a probe is saturated when one of its run guards
// tripped, or when its delivered throughput fell below frac of the
// offered flit rate (flits/node/cycle; offered = load times the mesh's
// bisection-saturation injection rate, the same normalization
// core.Config.Load uses). Below saturation an open-loop network accepts
// what is offered, so acceptance dropping to frac marks the knee
// independently of cycle budgets or measurement tier.
func OfferedFracSaturated(m *topology.Mesh, frac float64) func(float64, core.Result) bool {
	satRate := m.SaturationInjectionRate()
	return func(load float64, r core.Result) bool {
		if r.Saturated {
			return true
		}
		return r.Throughput < frac*load*satRate
	}
}

func (s BisectSpec) normalize() (BisectSpec, error) {
	if s.At == nil {
		return s, fmt.Errorf("sweep: BisectSpec.At is required")
	}
	if !(s.Lo >= 0) || !(s.Hi > s.Lo) {
		return s, fmt.Errorf("sweep: bisect bracket [%v, %v] is not ordered", s.Lo, s.Hi)
	}
	if s.Tol <= 0 {
		s.Tol = 0.02
	}
	if s.Fanout < 1 {
		s.Fanout = 3
	}
	if s.Saturated == nil {
		s.Saturated = func(_ float64, r core.Result) bool { return r.Saturated }
	}
	return s, nil
}

// BisectResult is the outcome of a saturation search.
type BisectResult struct {
	// Lo is the highest probed load that sustained (not saturated), Hi
	// the lowest that saturated; the saturation point lies between them
	// and Hi-Lo <= Tol when Converged.
	Lo, Hi float64
	// LoResult is the simulation at Lo: its Throughput is the sustained
	// acceptance rate at the highest load found deliverable, the
	// experiment-facing saturation-throughput observable.
	LoResult core.Result
	// Converged reports the bracket narrowed to Tol. False when the
	// whole (expanded) range saturates (Lo carries the lowest probed
	// load, unsustained) or never saturates (Hi == Lo: the range's top,
	// sustained).
	Converged bool
	// Probes is the number of probe simulations requested; Cached of
	// them were served by the memo cache, and SimulatedCycles is the
	// total simulated cycles of the rest — the search's cost, the number
	// the dense-grid comparison is about.
	Probes          int
	Cached          int
	SimulatedCycles int64
	// Rounds is the number of k-section rounds after bracketing.
	Rounds int
	// DensePoints is how many probes the dense-grid path would run for
	// the same initial bracket and resolution: ceil((Hi0-Lo0)/Tol)+1.
	DensePoints int
}

// String renders the search summary for experiment logs.
func (r BisectResult) String() string {
	state := "converged"
	if !r.Converged {
		state = "not converged"
	}
	return fmt.Sprintf("sat in [%.3f, %.3f] (%s; %d probes, %d cached, %d simulated cycles; dense grid: %d points)",
		r.Lo, r.Hi, state, r.Probes, r.Cached, r.SimulatedCycles, r.DensePoints)
}

// bisectRun tracks the accounting shared by every probe round.
type bisectRun struct {
	ctx  context.Context
	spec BisectSpec
	opt  Options
	res  *BisectResult
}

// eval probes the given loads (one sweep.Run round — or one round of
// Options.Exec, so a remote backend serves the probes) and returns their
// outcomes in load order. Probe errors abort the search: a config error
// means the caller built a bad spec, exactly like a bad experiment grid.
func (b *bisectRun) eval(loads []float64) ([]Outcome, error) {
	grid := make([]core.Config, len(loads))
	for i, x := range loads {
		grid[i] = b.spec.At(x)
	}
	outs, err := b.opt.exec()(b.ctx, grid, b.opt)
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("sweep: bisect probe at load %.4g: %w", loads[i], o.Err)
		}
		b.res.Probes++
		if o.Cached {
			b.res.Cached++
		} else {
			b.res.SimulatedCycles += o.Result.TotalCycles
		}
	}
	return outs, nil
}

// Bisect locates the saturation load of spec.At's config family within
// spec.Tol. See the package comment at the top of this file for the
// algorithm; Options carries the worker budget and memo cache exactly as
// for Run, and the result is bit-identical for any worker count.
func Bisect(ctx context.Context, spec BisectSpec, opt Options) (BisectResult, error) {
	spec, err := spec.normalize()
	if err != nil {
		return BisectResult{}, err
	}
	res := BisectResult{
		DensePoints: int(math.Ceil((spec.Hi-spec.Lo)/spec.Tol)) + 1,
	}
	b := &bisectRun{ctx: ctx, spec: spec, opt: opt, res: &res}

	// Bracket: probe both ends, then expand a bounded number of times
	// when an end is on the wrong side.
	lo, hi := spec.Lo, spec.Hi
	outs, err := b.eval([]float64{lo, hi})
	if err != nil {
		return res, err
	}
	loOut, hiOut := outs[0], outs[1]
	for tries := 0; b.spec.Saturated(lo, loOut.Result) && tries < 4 && lo > 1e-3; tries++ {
		hi, hiOut = lo, loOut
		lo /= 2
		if outs, err = b.eval([]float64{lo}); err != nil {
			return res, err
		}
		loOut = outs[0]
	}
	for tries := 0; !b.spec.Saturated(hi, hiOut.Result) && tries < 4; tries++ {
		lo, loOut = hi, hiOut
		hi *= 2
		if outs, err = b.eval([]float64{hi}); err != nil {
			return res, err
		}
		hiOut = outs[0]
	}
	if b.spec.Saturated(lo, loOut.Result) {
		// Everything probed saturates: report the lowest load seen.
		res.Lo, res.Hi = lo, lo
		res.LoResult = loOut.Result
		return res, nil
	}
	if !b.spec.Saturated(hi, hiOut.Result) {
		// Nothing saturates up to the expanded top: the best sustained
		// point is the top itself.
		res.Lo, res.Hi = hi, hi
		res.LoResult = hiOut.Result
		return res, nil
	}

	// k-section: each round probes Fanout evenly spaced interior loads
	// in parallel and keeps the sub-bracket around the first saturated
	// one. maxRounds is the geometric bound plus slack; it only guards
	// against float-width stagnation.
	maxRounds := int(math.Ceil(math.Log((hi-lo)/spec.Tol)/math.Log(float64(spec.Fanout+1)))) + 2
	for hi-lo > spec.Tol && res.Rounds < maxRounds {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.Rounds++
		step := (hi - lo) / float64(spec.Fanout+1)
		loads := make([]float64, spec.Fanout)
		for i := range loads {
			loads[i] = lo + float64(i+1)*step
		}
		outs, err := b.eval(loads)
		if err != nil {
			return res, err
		}
		firstSat := len(outs)
		for i, o := range outs {
			if b.spec.Saturated(loads[i], o.Result) {
				firstSat = i
				break
			}
		}
		if firstSat > 0 {
			lo, loOut = loads[firstSat-1], outs[firstSat-1]
		}
		if firstSat < len(outs) {
			hi = loads[firstSat]
		}
	}
	res.Lo, res.Hi = lo, hi
	res.LoResult = loOut.Result
	res.Converged = hi-lo <= spec.Tol
	return res, nil
}

// SaturationScan is the dense-grid reference path Bisect replaces: probe
// every load from Lo to Hi in Tol-sized steps (the grid an exhaustive
// experiment would declare) through one sweep.Run, and derive the same
// bracket. It exists so the adaptive search's cycle savings are
// measurable against a live implementation rather than an estimate.
func SaturationScan(ctx context.Context, spec BisectSpec, opt Options) (BisectResult, error) {
	spec, err := spec.normalize()
	if err != nil {
		return BisectResult{}, err
	}
	n := int(math.Ceil((spec.Hi-spec.Lo)/spec.Tol)) + 1
	res := BisectResult{DensePoints: n}
	b := &bisectRun{ctx: ctx, spec: spec, opt: opt, res: &res}
	loads := make([]float64, n)
	for i := range loads {
		loads[i] = spec.Lo + float64(i)*(spec.Hi-spec.Lo)/float64(n-1)
	}
	outs, err := b.eval(loads)
	if err != nil {
		return res, err
	}
	firstSat := -1
	for i, o := range outs {
		if spec.Saturated(loads[i], o.Result) {
			firstSat = i
			break
		}
	}
	switch firstSat {
	case -1:
		res.Lo, res.Hi = loads[n-1], loads[n-1]
		res.LoResult = outs[n-1].Result
	case 0:
		res.Lo, res.Hi = loads[0], loads[0]
		res.LoResult = outs[0].Result
	default:
		res.Lo, res.Hi = loads[firstSat-1], loads[firstSat]
		res.LoResult = outs[firstSat-1].Result
		res.Converged = true
	}
	return res, nil
}
