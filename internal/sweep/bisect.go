package sweep

// Saturation-point search. The classic way to locate a network's
// saturation load is a dense sweep of the whole load axis — most of
// whose points are either far below saturation (uninformative) or far
// above it (each one burning its full cycle budget before the guard
// trips). Bisect replaces the scan with bracketing plus parallel
// k-section. The first round probes both bracket ends; while Lo
// saturates it is halved, then while Hi sustains it is doubled (at most
// maxExpand times each); then every round probes fanout evenly spaced
// interior loads and narrows the bracket by a factor of fanout+1.
// BisectAll advances many searches in lockstep: a round is one call of
// the regular sweep engine holding every unsettled search's probes, so
// the memo cache, the worker bound and a remote executor apply
// unchanged. The probe loads are a pure function of the search's own
// outcomes — never of the worker count or of the other searches — so a
// search is deterministic for fixed seeds on any pool width, mirroring
// Run's guarantee. TestBisectCycleReduction pins the >= 2x cycle saving
// against a dense-grid scan of the load axis, its reference path.

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

// maxExpand bounds the bracket expansions in each direction.
const maxExpand = 4

// fanout is how many interior loads each round probes concurrently; the
// bracket narrows by fanout+1 per round.
const fanout = 3

// bisection is one saturation search between rounds: loads holds the
// coming round's probes (nil once the search has settled) and take folds
// their outcomes back in. The loads are a pure function of the search's
// own outcomes, so batching its rounds with other searches' never changes
// what it probes.
type bisection struct {
	spec         BisectSpec
	res          BisectResult
	lo, hi       float64
	loRes, hiRes core.Result
	down, up     int // expansions made in each direction
	maxRounds    int // k-section bound, fixed when bracketing ends (0 until then)
	loads        []float64
}

// take folds the outcomes of the round that probed b.loads into the
// search and plans the next one.
func (b *bisection) take(outs []Outcome) error {
	if err := b.res.count(b.loads, outs); err != nil {
		return err
	}
	if b.maxRounds == 0 {
		// A bracketing round probes the current ends.
		for i, x := range b.loads {
			if x == b.lo {
				b.loRes = outs[i].Result
			} else {
				b.hiRes = outs[i].Result
			}
		}
	} else {
		// Keep the sub-bracket around the first saturated probe.
		firstSat := len(outs)
		for i, o := range outs {
			if b.spec.Saturated(b.loads[i], o.Result) {
				firstSat = i
				break
			}
		}
		if firstSat > 0 {
			b.lo, b.loRes = b.loads[firstSat-1], outs[firstSat-1].Result
		}
		if firstSat < len(outs) {
			b.hi = b.loads[firstSat]
		}
	}
	b.loads = b.next()
	return nil
}

// next returns the loads the coming round probes, or settles the
// search's result and returns nil. Bracketing expands downward first and
// upward once downward is done; k-section follows.
func (b *bisection) next() []float64 {
	sat := b.spec.Saturated
	if b.maxRounds == 0 {
		if b.up == 0 && sat(b.lo, b.loRes) && b.down < maxExpand && b.lo > 1e-3 {
			b.down++
			b.hi, b.hiRes = b.lo, b.loRes
			b.lo /= 2
			return []float64{b.lo}
		}
		if !sat(b.hi, b.hiRes) && b.up < maxExpand {
			b.up++
			b.lo, b.loRes = b.hi, b.hiRes
			b.hi *= 2
			return []float64{b.hi}
		}
		if sat(b.lo, b.loRes) {
			// Everything probed saturates: report the lowest load seen.
			return b.settle(b.lo, b.lo, b.loRes, false)
		}
		if !sat(b.hi, b.hiRes) {
			// Nothing saturates up to the expanded top: the best sustained
			// point is the top itself.
			return b.settle(b.hi, b.hi, b.hiRes, false)
		}
		// maxRounds is the geometric bound plus slack; it only guards
		// against float-width stagnation.
		b.maxRounds = int(math.Ceil(math.Log((b.hi-b.lo)/b.spec.Tol)/math.Log(fanout+1))) + 2
	}
	if b.hi-b.lo > b.spec.Tol && b.res.Rounds < b.maxRounds {
		b.res.Rounds++
		step := (b.hi - b.lo) / (fanout + 1)
		loads := make([]float64, fanout)
		for i := range loads {
			loads[i] = b.lo + float64(i+1)*step
		}
		return loads
	}
	return b.settle(b.lo, b.hi, b.loRes, b.hi-b.lo <= b.spec.Tol)
}

// settle records the search's outcome; a settled search probes nothing.
func (b *bisection) settle(lo, hi float64, loRes core.Result, converged bool) []float64 {
	b.res.Lo, b.res.Hi, b.res.LoResult, b.res.Converged = lo, hi, loRes, converged
	return nil
}

// count adds one round's outcomes to the probe accounting. A probe error
// aborts the search: a config error means the caller built a bad spec,
// exactly like a bad experiment grid.
func (r *BisectResult) count(loads []float64, outs []Outcome) error {
	for i, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("sweep: bisect probe at load %.4g (key %s): %w", loads[i], o.Config.Key(), o.Err)
		}
		r.Probes++
		if o.Cached {
			r.Cached++
		} else {
			r.SimulatedCycles += o.Result.TotalCycles
		}
	}
	return nil
}

// Bisect locates the saturation load of spec.At's config family within
// spec.Tol: BisectAll of one spec.
func Bisect(ctx context.Context, spec BisectSpec, opt Options) (BisectResult, error) {
	res, err := BisectAll(ctx, []BisectSpec{spec}, opt)
	if err != nil {
		return BisectResult{}, err
	}
	return res[0], nil
}

// BisectAll runs independent saturation searches in lockstep. See the
// comment at the top of this file for the algorithm. Each round is one
// call of the executor (Options.Exec, else Run) holding every unsettled
// search's probes, so Options.Workers bounds every probe in flight and a
// remote backend sees one job per round. Results are in spec order and
// equal what independent Bisect calls return, bit for bit on any worker
// count; the first probe error aborts every search.
func BisectAll(ctx context.Context, specs []BisectSpec, opt Options) ([]BisectResult, error) {
	searches := make([]*bisection, len(specs))
	for i, spec := range specs {
		spec, err := spec.normalize()
		if err != nil {
			return nil, err
		}
		searches[i] = &bisection{spec: spec, lo: spec.Lo, hi: spec.Hi, loads: []float64{spec.Lo, spec.Hi},
			res: BisectResult{DensePoints: int(math.Ceil((spec.Hi-spec.Lo)/spec.Tol)) + 1}}
	}
	exec := opt.exec()
	for {
		var grid []core.Config
		for _, b := range searches {
			for _, x := range b.loads {
				grid = append(grid, b.spec.At(x))
			}
		}
		if len(grid) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		outs, err := exec(ctx, grid, opt)
		if err != nil {
			return nil, err
		}
		for _, b := range searches {
			n := len(b.loads)
			if n == 0 {
				continue // settled
			}
			if err := b.take(outs[:n]); err != nil {
				return nil, err
			}
			outs = outs[n:]
		}
	}
	res := make([]BisectResult, len(searches))
	for i, b := range searches {
		res[i] = b.res
	}
	return res, nil
}
