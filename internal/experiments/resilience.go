package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"lapses/internal/core"
	"lapses/internal/fault"
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
// Saturation is located by bisection (grid.saturation, whose
// SaturationSpec searches run in lockstep through sweep.BisectAll)
// instead of an arbitrarily overdriven fixed point or a dense load
// grid: the reported saturation load is the highest offered load the
// degraded network still accepts at >= 85% of demand (satAcceptFrac),
// and the reported throughput is the sustained acceptance rate at that
// load. The search costs a logarithmic number of probes; the
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
	// Cells holds one Cell per policy, in policies order (adaptive,
	// deterministic); each fills Lat, Sat and Search.
	Cells []Cell
}

// ThroughputGain returns the adaptive-over-deterministic saturation
// throughput ratio, the experiment's headline number.
func (r ResilienceRow) ThroughputGain() float64 {
	if r.Cells[1].Sat.Throughput == 0 {
		return 0
	}
	return r.Cells[0].Sat.Throughput / r.Cells[1].Sat.Throughput
}

// resilienceLatencyLoad is the moderate load the latency series uses.
const resilienceLatencyLoad = 0.2

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
			rows = append(rows, ResilienceRow{Pattern: pat, FaultLinks: c, Plan: plans[c], Cells: make([]Cell, len(policies))})
		}
	}
	// Each (row, policy) cell is one latency point plus one saturation
	// search over the same base configuration.
	var g grid
	for i := range rows {
		row := &rows[i]
		for j, pol := range policies {
			base := r.base()
			base.Algorithm = pol.alg
			base.Selection = pol.sel
			base.Pattern = row.Pattern
			base.Faults = fault.Static(row.Plan)
			cell := &row.Cells[j]
			g.latency(cell, base, resilienceLatencyLoad)
			lo, hi := satBracket(row.Pattern)
			g.saturation(cell, base, lo, hi, r.Fidelity.satTol())
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
		a, d := r.Cells[0], r.Cells[1]
		fmt.Fprintf(w, "%-7d %-24s %9.3f %9.3f %10.4f %10.4f %6.2f %10s %10s\n",
			r.FaultLinks, plan,
			a.Search.Lo, d.Search.Lo,
			a.Sat.Throughput, d.Sat.Throughput, r.ThroughputGain(),
			a.Lat.LatencyString(), d.Lat.LatencyString())
		for j, pol := range policies {
			if s := r.Cells[j].Search; !s.Converged {
				fmt.Fprintf(w, "warning: %s saturation search at %d faults did not converge (bracket [%.3f, %.3f]); sat-load is a lower bound\n",
					pol.name, r.FaultLinks, s.Lo, s.Hi)
			}
			searches = append(searches, r.Cells[j].Search)
		}
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
		for j, pol := range policies {
			c := r.Cells[j]
			recs = append(recs, []string{
				r.Pattern.String(),
				strconv.Itoa(r.FaultLinks),
				plan,
				pol.name,
				latCell(c.Lat),
				satCell(c.Lat),
				fixed(c.Search.Lo, 4),
				fixed(c.Sat.Throughput, 5),
				strconv.FormatBool(c.Search.Converged),
				strconv.Itoa(c.Search.Probes),
				strconv.FormatInt(c.Search.SimulatedCycles, 10),
			})
		}
	}
	return recs
}
