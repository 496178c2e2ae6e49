package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/selection"
	"lapses/internal/sweep"
	"lapses/internal/traffic"
)

// The resilience experiment measures what the paper's adaptivity recipe
// buys when the network degrades: saturation load/throughput and mean
// latency versus the number of failed links, comparing the full LAPSES
// router (Duato adaptive routing, ES tables, LRU selection) against
// deterministic routing over the same damage. Both run the identical
// degraded topology and the identical up*/down* escape structure, so the
// gap isolates the value of adaptive path diversity around faults — the
// scenario adaptive routing is sold on but the paper never evaluates.
//
// Saturation is located by bisection (sweep.Bisect over
// SaturationSpec probes) instead of an arbitrarily overdriven fixed
// point or a dense load grid: the reported saturation load is the
// highest offered load the degraded network still accepts at >= 85% of
// demand (satAcceptFrac), and the reported throughput is the sustained acceptance rate
// at that load. The search costs a logarithmic number of probes; the
// per-experiment log line reports the measured probe/cycle total against
// the dense-grid equivalent (the >= 2x cycle reduction is pinned by
// TestBisectCycleReduction). Latency is reported at a moderate load on
// the same plans. Load stays normalized to the healthy bisection, so
// every fault count shares an x-axis.

// ResilienceFaultCounts is the failed-link axis.
var ResilienceFaultCounts = []int{0, 1, 2, 4, 6, 8}

// ResiliencePatterns are the traffic patterns the resilience experiment
// sweeps.
var ResiliencePatterns = []traffic.Kind{traffic.Uniform, traffic.Transpose}

// ResilienceRow is one (pattern, fault count) point: latency at the
// moderate load and the bisection-located saturation point for both
// routing policies over the same fault plan.
type ResilienceRow struct {
	Pattern traffic.Kind
	// FaultLinks is the number of failed links; Plan is the shared damage
	// (nil at zero faults).
	FaultLinks int
	Plan       *fault.Plan
	// AdaptiveLat/DetLat: mean latency at the moderate load.
	AdaptiveLat, DetLat core.Result
	// AdaptiveSat/DetSat: the highest-sustainable-load probe found by the
	// saturation search; its Throughput is the sustained acceptance rate
	// at the saturation point.
	AdaptiveSat, DetSat core.Result
	// AdaptiveSearch/DetSearch carry the full search outcomes: the
	// saturation-load bracket and the probe/cycle accounting.
	AdaptiveSearch, DetSearch sweep.BisectResult
}

// AdaptiveSatLoad and DetSatLoad are the located saturation loads (the
// highest sustained probe load).
func (r ResilienceRow) AdaptiveSatLoad() float64 { return r.AdaptiveSearch.Lo }

// DetSatLoad is the deterministic policy's saturation load.
func (r ResilienceRow) DetSatLoad() float64 { return r.DetSearch.Lo }

// ThroughputGain returns the adaptive-over-deterministic saturation
// throughput ratio, the experiment's headline number.
func (r ResilienceRow) ThroughputGain() float64 {
	if r.DetSat.Throughput == 0 {
		return 0
	}
	return r.AdaptiveSat.Throughput / r.DetSat.Throughput
}

// resilienceLatencyLoad is the moderate load the latency series uses.
func resilienceLatencyLoad(traffic.Kind) float64 { return 0.2 }

// ResiliencePlans generates the shared fault plans for the given link
// counts on the experiment mesh, seeded from seed (count 0 maps to nil).
// Plans are per-count, not per-pattern, so every series degrades the same
// hardware.
func ResiliencePlans(base core.Config, counts []int, seed int64) (map[int]*fault.Plan, error) {
	m := base.Mesh()
	plans := make(map[int]*fault.Plan, len(counts))
	for _, c := range counts {
		if c == 0 {
			plans[0] = nil
			continue
		}
		p, err := fault.Random(m, c, 0, seed+int64(c)*101)
		if err != nil {
			return nil, fmt.Errorf("experiments: resilience plan for %d faults: %w", c, err)
		}
		plans[c] = p
	}
	return plans, nil
}

// resiliencePolicies is the policy axis shared by the latency grid, the
// saturation searches and the record table.
var resiliencePolicies = []struct {
	name   string
	alg    core.Alg
	sel    selection.Kind
	lat    func(*ResilienceRow) *core.Result
	sat    func(*ResilienceRow) *core.Result
	search func(*ResilienceRow) *sweep.BisectResult
}{
	{"adaptive", core.AlgDuato, selection.LRU,
		func(w *ResilienceRow) *core.Result { return &w.AdaptiveLat },
		func(w *ResilienceRow) *core.Result { return &w.AdaptiveSat },
		func(w *ResilienceRow) *sweep.BisectResult { return &w.AdaptiveSearch }},
	{"deterministic", core.AlgXY, selection.StaticXY,
		func(w *ResilienceRow) *core.Result { return &w.DetLat },
		func(w *ResilienceRow) *core.Result { return &w.DetSat },
		func(w *ResilienceRow) *sweep.BisectResult { return &w.DetSearch }},
}

// Resilience runs the full experiment grid through the sweep engine.
func (r Runner) Resilience(ctx context.Context) ([]ResilienceRow, error) {
	return r.resilience(ctx, ResiliencePatterns, ResilienceFaultCounts)
}

// resilience is the parameterized core; the quick test tier runs it over
// a reduced grid.
func (r Runner) resilience(ctx context.Context, patterns []traffic.Kind, counts []int) ([]ResilienceRow, error) {
	plans, err := ResiliencePlans(r.base(), counts, r.Seed)
	if err != nil {
		return nil, err
	}
	var rows []ResilienceRow
	for _, pat := range patterns {
		for _, c := range counts {
			rows = append(rows, ResilienceRow{Pattern: pat, FaultLinks: c, Plan: plans[c]})
		}
	}
	// Each (row, policy) cell is one latency point plus one saturation
	// search over the same base configuration.
	var g grid
	for i := range rows {
		row := &rows[i]
		for _, pol := range resiliencePolicies {
			base := r.base()
			base.Algorithm = pol.alg
			base.Selection = pol.sel
			base.Pattern = row.Pattern
			base.Faults = fault.Static(row.Plan)
			lat := base
			lat.Load = resilienceLatencyLoad(row.Pattern)
			latSlot := pol.lat(row)
			g.add(lat, func(res core.Result) { *latSlot = res })
			lo, hi := satBracket(row.Pattern)
			searchSlot, satSlot := pol.search(row), pol.sat(row)
			g.search(SaturationSpec(base, lo, hi, r.Fidelity.satTol()), func(res sweep.BisectResult) {
				*searchSlot = res
				*satSlot = res.LoResult
			})
		}
	}
	if err := g.run(ctx, r.opts()); err != nil {
		return nil, err
	}
	return rows, nil
}

// searchCost sums the probe/cycle accounting of a set of searches, for
// the per-experiment log line.
func searchCost(searches ...sweep.BisectResult) (probes int, cycles int64, dense int) {
	for _, s := range searches {
		probes += s.Probes
		cycles += s.SimulatedCycles
		dense += s.DensePoints
	}
	return
}

// RenderResilience prints the experiment in the repo's table style.
func RenderResilience(w io.Writer, rows []ResilienceRow) {
	fmt.Fprintln(w, "Resilience: saturation load/throughput (bisection) and mean latency vs failed links")
	fmt.Fprintln(w, "(adaptive = LA Duato + ES + LRU; deterministic = up*/down* over the same damage)")
	var pat traffic.Kind = -1
	var searches []sweep.BisectResult
	for _, r := range rows {
		if r.Pattern != pat {
			pat = r.Pattern
			fmt.Fprintf(w, "\n[%s traffic]\n", pat)
			fmt.Fprintf(w, "%-7s %-24s %9s %9s %10s %10s %6s %10s %10s\n",
				"faults", "plan", "adpt-sat", "det-sat", "adpt-thr", "det-thr", "gain", "adpt-lat", "det-lat")
		}
		plan := "-"
		if r.Plan != nil {
			plan = r.Plan.Key()
		}
		if len(plan) > 24 {
			plan = plan[:21] + "..."
		}
		fmt.Fprintf(w, "%-7d %-24s %9.3f %9.3f %10.4f %10.4f %6.2f %10s %10s\n",
			r.FaultLinks, plan,
			r.AdaptiveSatLoad(), r.DetSatLoad(),
			r.AdaptiveSat.Throughput, r.DetSat.Throughput, r.ThroughputGain(),
			r.AdaptiveLat.LatencyString(), r.DetLat.LatencyString())
		for _, pol := range resiliencePolicies {
			if s := pol.search(&r); !s.Converged {
				fmt.Fprintf(w, "warning: %s saturation search at %d faults did not converge (bracket [%.3f, %.3f]); sat-load is a lower bound\n",
					pol.name, r.FaultLinks, s.Lo, s.Hi)
			}
		}
		searches = append(searches, r.AdaptiveSearch, r.DetSearch)
	}
	probes, cycles, dense := searchCost(searches...)
	fmt.Fprintf(w, "\n[saturation search: %d probes / %d simulated cycles across %d searches; dense-grid path: %d points (>=2x cycle reduction pinned by TestBisectCycleReduction)]\n",
		probes, cycles, len(searches), dense)
}

// resilienceRecords has one record per (pattern, fault count, policy).
func resilienceRecords(rows []ResilienceRow) [][]string {
	recs := [][]string{{
		"pattern", "fault_links", "fault_plan", "policy",
		"avg_latency", "saturated", "sat_load", "sat_throughput", "sat_converged",
		"search_probes", "search_cycles",
	}}
	for _, r := range rows {
		plan := ""
		if r.Plan != nil {
			plan = r.Plan.Key()
		}
		for _, pol := range resiliencePolicies {
			lat, sat, search := pol.lat(&r), pol.sat(&r), pol.search(&r)
			recs = append(recs, []string{
				r.Pattern.String(),
				strconv.Itoa(r.FaultLinks),
				plan,
				pol.name,
				latCell(*lat),
				satCell(*lat),
				fixed(search.Lo, 4),
				fixed(sat.Throughput, 5),
				strconv.FormatBool(search.Converged),
				strconv.Itoa(search.Probes),
				strconv.FormatInt(search.SimulatedCycles, 10),
			})
		}
	}
	return recs
}
