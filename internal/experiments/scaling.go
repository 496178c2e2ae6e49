package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"lapses/internal/sweep"
	"lapses/internal/traffic"
)

// The scaling experiment measures how the paper's adaptivity story behaves
// as the mesh grows beyond the paper's 16x16: the saturation load and
// sustained throughput, located by the bisection saturation search, and the
// throughput of a fixed-budget overdriven run, from 8x8 up to 32x32,
// adaptive (LA Duato + ES + LRU) versus deterministic (XY + static). Host
// time per mesh size is the benchmark harness's to measure (go run
// ./benchmark: kernel-flow, core.construct_ms_32x32), not a table column.
//
// The saturation search runs once per (mesh, policy), and its probe/cycle
// accounting is logged against the dense-grid equivalent.

// ScalingDims is the mesh-size axis.
var ScalingDims = [][]int{{8, 8}, {16, 16}, {24, 24}, {32, 32}}

// ScalingRow is one (mesh, policy) point; its Cell fills Ovr, Sat and
// Search.
type ScalingRow struct {
	Dims   []int
	Policy string // "adaptive" or "deterministic"
	Cell
}

// scalingOvrLoad overdrives uniform traffic well past saturation.
const scalingOvrLoad = 0.9

// scalingDims trims the mesh axis for the quick tier: the large meshes
// are the point of the experiment but not of a smoke test.
func (r Runner) scalingDims() [][]int {
	if r.Fidelity == Quick {
		return [][]int{{8, 8}, {16, 16}}
	}
	return ScalingDims
}

// Scaling runs the full grid through the sweep engine.
func (r Runner) Scaling(ctx context.Context) ([]ScalingRow, error) {
	dims := r.scalingDims()
	// Rows are addressed by pointer from the grid and search sinks, so
	// the slice must not reallocate after the first &rows[i] is taken.
	rows := make([]ScalingRow, 0, len(dims)*len(policies))
	var g grid
	for _, d := range dims {
		for _, pol := range policies {
			base := r.base()
			base.Dims = d
			base.Algorithm = pol.alg
			base.Selection = pol.sel
			base.Pattern = traffic.Uniform
			rows = append(rows, ScalingRow{Dims: d, Policy: pol.name})
			cell := &rows[len(rows)-1].Cell
			g.overdriven(cell, base, scalingOvrLoad, r.Fidelity.ovrCycles())
			lo, hi := satBracket(traffic.Uniform)
			g.saturation(cell, base, lo, hi, r.Fidelity.satTol())
		}
	}
	if err := g.run(ctx, r.opts()); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderScaling prints the experiment in the repo's table style.
func RenderScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintln(w, "Scaling: saturation point (bisection) and overdriven throughput vs mesh size")
	fmt.Fprintln(w, "(adaptive = LA Duato + ES + LRU; deterministic = XY + static; ovr-thr overdriven at load 0.9)")
	fmt.Fprintf(w, "%-8s %-14s %9s %10s %10s %8s\n",
		"mesh", "policy", "sat-load", "sat-thr", "ovr-thr", "skipped")
	searches := make([]sweep.BisectResult, 0, len(rows))
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-14s %9.3f %10.4f %10.4f %8d\n",
			dimsString(r.Dims), r.Policy,
			r.Search.Lo, r.Sat.Throughput,
			r.Ovr.Throughput, r.Ovr.SkippedCycles)
		searches = append(searches, r.Search)
		if !r.Search.Converged {
			fmt.Fprintf(w, "warning: %s/%s saturation search did not converge (bracket [%.3f, %.3f]); sat-load is a lower bound\n",
				dimsString(r.Dims), r.Policy, r.Search.Lo, r.Search.Hi)
		}
	}
	probes, cycles, dense := searchCost(searches...)
	fmt.Fprintf(w, "\n[saturation search: %d probes / %d simulated cycles across %d searches; dense-grid path: %d points]\n",
		probes, cycles, len(searches), dense)
}

func dimsString(dims []int) string {
	s := ""
	for i, d := range dims {
		if i > 0 {
			s += "x"
		}
		s += strconv.Itoa(d)
	}
	return s
}

// scalingRecords has one record per (mesh, policy).
func scalingRecords(rows []ScalingRow) [][]string {
	recs := [][]string{{
		"mesh", "nodes", "policy",
		"sat_load", "sat_throughput", "sat_converged", "overdriven_throughput",
	}}
	for _, r := range rows {
		nodes := 1
		for _, d := range r.Dims {
			nodes *= d
		}
		recs = append(recs, []string{
			dimsString(r.Dims),
			strconv.Itoa(nodes),
			r.Policy,
			fixed(r.Search.Lo, 4),
			fixed(r.Sat.Throughput, 5),
			strconv.FormatBool(r.Search.Converged),
			fixed(r.Ovr.Throughput, 5),
		})
	}
	return recs
}
