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

// The congestion experiment measures what the piggybacked congestion
// notifications buy over the paper's purely local path-selection
// heuristics: the notify-* selectors steer worms away from output ports
// whose downstream router reported high occupancy on its last credit,
// while the local heuristics (LRU, MAX-CREDIT) see only the upstream
// side of each link. The workloads are the ones that create the
// non-uniform, time-varying congestion the signal exists for — bursty
// MMPP sources, a persistent hotspot, their combination, a two-class QoS
// mix, and bursty traffic over a damaged mesh (reusing the resilience
// experiment's degraded-topology machinery).
//
// Three measurements per (workload, policy) cell:
//   - mean latency at a moderate load (the "does the signal hurt when
//     nothing is congested" column);
//   - accepted throughput of a fixed-budget overdriven run, the scaling
//     experiment's methodology — under sustained overload the network
//     tree-saturates and the accepted rate becomes a property of how
//     well selection routes around the backlog (the headline column:
//     the claim test pins notify > best local on bursty uniform);
//   - the bisection-located saturation load and its sustained
//     acceptance, as in the resilience experiment.

// CongestionWorkload is one row of the workload axis.
type CongestionWorkload struct {
	Name    string
	Pattern traffic.Kind
	// Burst, when non-nil, replaces the stationary Poisson sources with
	// bursty MMPP on/off sources at the same mean rate.
	Burst *traffic.Burst
	// QoS, when nonzero, is the high-class fraction of the two-class
	// traffic mix with VC reservation (core.Config.QoS).
	QoS float64
	// FaultLinks > 0 degrades the mesh with that many failed links (the
	// plan is drawn like the resilience experiment's, seeded from the
	// runner's seed).
	FaultLinks int
	// LatLoad is the moderate load of the latency column; OvrLoad the
	// offered load of the fixed-budget overdriven run.
	LatLoad, OvrLoad float64
	// SatLo, SatHi bracket the saturation search.
	SatLo, SatHi float64
}

// congestionBurst is the default burstiness: sources are ON 30% of the
// time in bursts of mean 200 cycles, so the instantaneous offered load
// during a burst is 3.3x the mean.
func congestionBurst() *traffic.Burst { return &traffic.Burst{OnFrac: 0.3, MeanOn: 200} }

// CongestionWorkloads is the default workload axis. Hotspot rows carry
// much lower loads because the hot node's ejection channel caps the
// pattern's saturation near load 0.15 on the 16x16 mesh.
func CongestionWorkloads() []CongestionWorkload {
	return []CongestionWorkload{
		{Name: "bursty-uniform", Pattern: traffic.Uniform, Burst: congestionBurst(),
			LatLoad: 0.2, OvrLoad: 0.9, SatLo: 0.1, SatHi: 1.0},
		{Name: "bursty-transpose", Pattern: traffic.Transpose, Burst: congestionBurst(),
			LatLoad: 0.15, OvrLoad: 0.5, SatLo: 0.05, SatHi: 0.7},
		{Name: "hotspot", Pattern: traffic.Hotspot,
			LatLoad: 0.08, OvrLoad: 0.2, SatLo: 0.02, SatHi: 0.4},
		{Name: "bursty-hotspot", Pattern: traffic.Hotspot, Burst: congestionBurst(),
			LatLoad: 0.08, OvrLoad: 0.2, SatLo: 0.02, SatHi: 0.4},
		{Name: "qos-bursty-uniform", Pattern: traffic.Uniform, Burst: congestionBurst(), QoS: 0.2,
			LatLoad: 0.2, OvrLoad: 0.9, SatLo: 0.1, SatHi: 1.0},
		{Name: "bursty-uniform-4faults", Pattern: traffic.Uniform, Burst: congestionBurst(), FaultLinks: 4,
			LatLoad: 0.2, OvrLoad: 0.9, SatLo: 0.1, SatHi: 1.0},
	}
}

// Describe renders the workload's parameters for table headers.
func (w CongestionWorkload) Describe() string {
	s := w.Pattern.String()
	if w.Burst != nil {
		s += fmt.Sprintf(" + MMPP(on %.2f, mean-on %.0f)", w.Burst.OnFrac, w.Burst.MeanOn)
	}
	if w.QoS != 0 {
		s += fmt.Sprintf(" + QoS(hi %.2f, %d resv VC)", w.QoS, core.ResvVCs)
	}
	if w.FaultLinks > 0 {
		s += fmt.Sprintf(" + %d failed links", w.FaultLinks)
	}
	return s
}

// CongestionPolicies is the selection-policy axis: the paper's two
// strongest local heuristics and their notification-augmented variants.
var CongestionPolicies = []selection.Kind{
	selection.LRU, selection.MaxCredit, selection.NotifyLRU, selection.NotifyMaxCredit,
}

// CongestionRow is one workload with its per-policy cells (and the fault
// plan shared by all of the row's points, nil when undamaged). Every cell
// fills all four of its fields.
type CongestionRow struct {
	Workload CongestionWorkload
	Plan     *fault.Plan
	Cells    map[selection.Kind]*Cell
}

// BestLocalOvr and BestNotifyOvr are the best overdriven accepted
// throughput within each policy family.
func (r CongestionRow) BestLocalOvr() float64  { return r.bestOvr(false) }
func (r CongestionRow) BestNotifyOvr() float64 { return r.bestOvr(true) }

func (r CongestionRow) bestOvr(notify bool) float64 {
	best := 0.0
	for _, k := range CongestionPolicies {
		if k.IsNotify() != notify {
			continue
		}
		if c := r.Cells[k]; c != nil && c.Ovr.Throughput > best {
			best = c.Ovr.Throughput
		}
	}
	return best
}

// NotifyGain is the experiment's headline number: the best notify
// policy's overdriven accepted throughput over the best local policy's.
func (r CongestionRow) NotifyGain() float64 {
	local := r.BestLocalOvr()
	if local == 0 {
		return 0
	}
	return r.BestNotifyOvr() / local
}

// Congestion runs the full experiment grid through the sweep engine.
func (r Runner) Congestion(ctx context.Context) ([]CongestionRow, error) {
	return r.congestion(ctx, CongestionWorkloads())
}

// congestionBase is the shared configuration of one row's points.
func (r Runner) congestionBase(row *CongestionRow, sel selection.Kind) core.Config {
	c := r.base()
	c.Selection = sel
	c.Pattern = row.Workload.Pattern
	c.Burst = row.Workload.Burst
	c.QoS = row.Workload.QoS
	c.Faults = fault.Static(row.Plan)
	return c
}

// congestion is the parameterized core; the quick test tier runs it over
// a reduced workload list.
func (r Runner) congestion(ctx context.Context, workloads []CongestionWorkload) ([]CongestionRow, error) {
	mesh := r.base().Mesh()
	rows := make([]CongestionRow, len(workloads))
	for i, w := range workloads {
		rows[i] = CongestionRow{Workload: w, Cells: map[selection.Kind]*Cell{}}
		for _, pol := range CongestionPolicies {
			rows[i].Cells[pol] = &Cell{}
		}
		if w.FaultLinks > 0 {
			// Same derivation as ResiliencePlans, so a shared fault count
			// degrades the same hardware in both experiments.
			p, err := fault.Random(mesh, w.FaultLinks, 0, r.Seed+int64(w.FaultLinks)*101)
			if err != nil {
				return nil, fmt.Errorf("experiments: congestion plan for %s: %w", w.Name, err)
			}
			rows[i].Plan = p
		}
	}
	// Each (row, policy) cell is a latency point, an overdriven point and
	// a saturation search over the same base configuration.
	var g grid
	for i := range rows {
		row := &rows[i]
		for _, pol := range CongestionPolicies {
			cell, w := row.Cells[pol], row.Workload
			base := r.congestionBase(row, pol)
			g.latency(cell, base, w.LatLoad)
			g.overdriven(cell, base, w.OvrLoad, r.Fidelity.ovrCycles())
			g.saturation(cell, base, w.SatLo, w.SatHi, r.Fidelity.satTol())
		}
	}
	if err := g.run(ctx, r.opts()); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderCongestion prints the experiment in the repo's table style.
func RenderCongestion(w io.Writer, rows []CongestionRow) {
	fmt.Fprintln(w, "Congestion notification: accepted throughput under overload, saturation point and moderate-load latency")
	fmt.Fprintln(w, "(notify-* = local heuristic restricted to least-congested downstream quadrant, from credit-piggybacked occupancy)")
	var searches []sweep.BisectResult
	for _, r := range rows {
		fmt.Fprintf(w, "\n[%s: %s]\n", r.Workload.Name, r.Workload.Describe())
		fmt.Fprintf(w, "%-18s %10s %10s %9s %10s\n", "policy", "lat", "ovr-thr", "sat-load", "sat-thr")
		for _, pol := range CongestionPolicies {
			c := r.Cells[pol]
			fmt.Fprintf(w, "%-18s %10s %10.4f %9.3f %10.4f\n",
				pol, c.Lat.LatencyString(), c.Ovr.Throughput, c.Search.Lo, c.Sat.Throughput)
			if !c.Search.Converged {
				fmt.Fprintf(w, "warning: %s/%s saturation search did not converge (bracket [%.3f, %.3f]); sat-load is a lower bound\n",
					r.Workload.Name, pol, c.Search.Lo, c.Search.Hi)
			}
			searches = append(searches, c.Search)
		}
		fmt.Fprintf(w, "notify gain (best notify / best local overdriven throughput): %.3f\n", r.NotifyGain())
	}
	probes, cycles, dense := searchCost(searches...)
	fmt.Fprintf(w, "\n[saturation search: %d probes / %d simulated cycles across %d searches; dense-grid path: %d points]\n",
		probes, cycles, len(searches), dense)
}

// congestionRecords has one record per (workload, policy).
func congestionRecords(rows []CongestionRow) [][]string {
	recs := [][]string{{
		"workload", "pattern", "burst_on_frac", "burst_mean_on", "qos_hi_frac", "fault_links", "fault_plan",
		"policy", "notify",
		"avg_latency", "saturated", "ovr_throughput",
		"sat_load", "sat_throughput", "sat_converged", "search_probes", "search_cycles",
	}}
	for _, r := range rows {
		onFrac, meanOn, hiFrac := "", "", ""
		if b := r.Workload.Burst; b != nil {
			onFrac = fixed(b.OnFrac, 3)
			meanOn = fixed(b.MeanOn, 1)
		}
		if q := r.Workload.QoS; q != 0 {
			hiFrac = fixed(q, 3)
		}
		plan := ""
		if r.Plan != nil {
			plan = r.Plan.Key()
		}
		for _, pol := range CongestionPolicies {
			c := r.Cells[pol]
			recs = append(recs, []string{
				r.Workload.Name,
				r.Workload.Pattern.String(),
				onFrac, meanOn, hiFrac,
				strconv.Itoa(r.Workload.FaultLinks),
				plan,
				pol.String(),
				strconv.FormatBool(pol.IsNotify()),
				latCell(c.Lat),
				satCell(c.Lat),
				fixed(c.Ovr.Throughput, 5),
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
