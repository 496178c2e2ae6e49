package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"lapses/internal/core"
	"lapses/internal/selection"
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

// ScalingRow is one (mesh, policy) point.
type ScalingRow struct {
	Dims   []int
	Policy string // "adaptive" or "deterministic"
	// Sat is the overdriven fixed-budget run.
	Sat core.Result
	// SatLoad is the bisection-located saturation load and SatSustained
	// the run at it (Throughput = sustained acceptance); Search carries
	// the full search outcome.
	SatLoad      float64
	SatSustained core.Result
	Search       sweep.BisectResult
}

// scalingSatLoad overdrives uniform traffic well past saturation,
// matching the resilience experiment's methodology.
const scalingSatLoad = 0.9

// scalingSatCycles is the fixed cycle budget of one saturation run.
func (f Fidelity) scalingSatCycles() int64 {
	switch f {
	case Quick:
		return 4000
	case Paper:
		return 40000
	}
	return 15000
}

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
	policies := []struct {
		name string
		alg  core.Alg
		sel  selection.Kind
	}{
		{"adaptive", core.AlgDuato, selection.LRU},
		{"deterministic", core.AlgXY, selection.StaticXY},
	}
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
			row := &rows[len(rows)-1]

			// The overdriven column is defined as a fixed-budget run
			// (README: "when a fixed tier is still required"), so it
			// sheds Fidelity Auto's adaptive tier — early stopping would
			// change what ovr-thr measures.
			over := base
			over.Auto = nil
			over.Load = scalingSatLoad
			over.SatLatency = 1e12
			over.MaxCycles = r.Fidelity.scalingSatCycles()
			over.Measure = 1 << 30 // the cycle budget ends the run
			g.add(over, func(res core.Result) { row.Sat = res })

			// Probes shed the adaptive tier too (see SaturationSpec) and
			// run through the regular options (worker bound, memo cache).
			lo, hi := satBracket(traffic.Uniform)
			g.search(SaturationSpec(base, lo, hi, r.Fidelity.satTol()), func(res sweep.BisectResult) {
				row.SatLoad = res.Lo
				row.SatSustained = res.LoResult
				row.Search = res
			})
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
			r.SatLoad, r.SatSustained.Throughput,
			r.Sat.Throughput, r.Sat.SkippedCycles)
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
			fixed(r.SatLoad, 4),
			fixed(r.SatSustained.Throughput, 5),
			strconv.FormatBool(r.Search.Converged),
			fixed(r.Sat.Throughput, 5),
		})
	}
	return recs
}
