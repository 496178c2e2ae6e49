// Benchmarks regenerating every table and figure of the LAPSES paper's
// evaluation, plus microarchitecture and ablation benches. Each
// paper-experiment bench runs a scaled-down but otherwise faithful
// simulation per iteration and reports the measured average latency as a
// custom metric (cycles/msg), so `go test -bench` doubles as a compact
// results table. Full-resolution sweeps (all loads, paper sample sizes)
// are produced by cmd/lapses-experiments.
package lapses_test

import (
	"context"
	"fmt"
	"testing"

	"lapses/internal/core"
	"lapses/internal/experiments"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/sweep"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// benchConfig is the shared scaled-down 16x16 configuration.
func benchConfig() core.Config {
	c := core.DefaultConfig()
	c.Selection = selection.StaticXY
	c.Warmup, c.Measure = 300, 3000
	return c
}

// runPoint executes one simulation per bench iteration and reports its
// average latency.
func runPoint(b *testing.B, c core.Config) {
	b.Helper()
	var last core.Result
	for i := 0; i < b.N; i++ {
		c.Seed = int64(i + 1)
		r, err := core.Run(c)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last.Saturated {
		b.ReportMetric(-1, "cycles/msg") // saturation marker
	} else {
		b.ReportMetric(last.AvgLatency, "cycles/msg")
	}
	b.ReportMetric(last.Throughput, "flits/node/cycle")
}

// BenchmarkFig5 regenerates Figure 5: the four router architectures
// (deterministic/adaptive x with/without look-ahead) per traffic pattern,
// at a representative pre-saturation load.
func BenchmarkFig5(b *testing.B) {
	loads := map[traffic.Kind]float64{
		traffic.Uniform:     0.5,
		traffic.Transpose:   0.3,
		traffic.BitReversal: 0.3,
		traffic.Shuffle:     0.3,
	}
	archs := []struct {
		name string
		la   bool
		alg  core.Alg
	}{
		{"NOLA-DET", false, core.AlgXY},
		{"NOLA-ADAPT", false, core.AlgDuato},
		{"LA-DET", true, core.AlgXY},
		{"LA-ADAPT", true, core.AlgDuato},
	}
	for _, pat := range []traffic.Kind{traffic.Uniform, traffic.Transpose, traffic.BitReversal, traffic.Shuffle} {
		for _, a := range archs {
			b.Run(fmt.Sprintf("%s/%s", pat, a.name), func(b *testing.B) {
				c := benchConfig()
				c.Pattern = pat
				c.Load = loads[pat]
				c.LookAhead = a.la
				c.Algorithm = a.alg
				runPoint(b, c)
			})
		}
	}
}

// BenchmarkTable3 regenerates Table 3: look-ahead benefit vs message
// length at uniform load 0.2.
func BenchmarkTable3(b *testing.B) {
	for _, msgLen := range []int{5, 10, 20, 50} {
		for _, la := range []bool{true, false} {
			name := fmt.Sprintf("len%d/LA=%v", msgLen, la)
			b.Run(name, func(b *testing.B) {
				c := benchConfig()
				c.Load = 0.2
				c.MsgLen = msgLen
				c.LookAhead = la
				runPoint(b, c)
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: the five path-selection heuristics
// per traffic pattern at medium-high load.
func BenchmarkFig6(b *testing.B) {
	loads := map[traffic.Kind]float64{
		traffic.Uniform:     0.5,
		traffic.Transpose:   0.4,
		traffic.BitReversal: 0.4,
		traffic.Shuffle:     0.4,
	}
	for _, pat := range []traffic.Kind{traffic.Uniform, traffic.Transpose, traffic.BitReversal, traffic.Shuffle} {
		for _, psh := range []selection.Kind{selection.StaticXY, selection.MinMux, selection.LFU, selection.LRU, selection.MaxCredit} {
			b.Run(fmt.Sprintf("%s/%s", pat, psh), func(b *testing.B) {
				c := benchConfig()
				c.Pattern = pat
				c.Load = loads[pat]
				c.Selection = psh
				runPoint(b, c)
			})
		}
	}
}

// BenchmarkTable4 regenerates Table 4: the table-storage schemes under
// transpose traffic where their differences are starkest.
func BenchmarkTable4(b *testing.B) {
	for _, tk := range []table.Kind{table.KindMetaBlock, table.KindMetaRow, table.KindFull, table.KindES} {
		b.Run(tk.String(), func(b *testing.B) {
			c := benchConfig()
			c.Pattern = traffic.Transpose
			c.Load = 0.2
			c.Table = tk
			runPoint(b, c)
		})
	}
}

// BenchmarkTable5 measures what Table 5 summarizes: the construction cost
// and lookup cost of each table organization (storage numbers are printed
// by cmd/lapses-experiments -exp table5).
func BenchmarkTable5(b *testing.B) {
	m := topology.NewMesh(16, 16)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	alg := routing.NewDuato(m, cls)
	node := m.ID(topology.Coord{7, 7})

	b.Run("build/full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			table.NewFull(m, alg, node)
		}
	})
	b.Run("build/es", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			table.NewES(m, alg, node)
		}
	})
	full := table.NewFull(m, alg, node)
	es := table.NewES(m, alg, node)
	meta := table.NewMeta(m, alg, cls, node, table.MapBlock)
	dsts := make([]topology.NodeID, 64)
	for i := range dsts {
		dsts[i] = topology.NodeID(i * 4)
	}
	for name, tbl := range map[string]table.Table{"full": full, "es": es, "meta-block": meta} {
		b.Run("lookup/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl.Lookup(dsts[i&63], 0)
			}
		})
		b.Run("lookahead/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl.LookupAt(topology.PortPlus(0), dsts[i&63], 0)
			}
		})
	}
}

// BenchmarkSweepParallelism runs a fixed 16-point grid through the sweep
// engine at increasing worker counts. Points are independent simulations,
// so ns/op should fall near-linearly with workers until GOMAXPROCS (or
// memory bandwidth) saturates — compare the workers=1 and workers=N lines.
func BenchmarkSweepParallelism(b *testing.B) {
	var grid []core.Config
	for _, pat := range []traffic.Kind{traffic.Uniform, traffic.Transpose} {
		for _, load := range []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.1, 0.2} {
			c := core.DefaultConfig()
			c.Dims = []int{8, 8}
			c.Selection = selection.StaticXY
			c.Pattern = pat
			c.Load = load
			c.Warmup, c.Measure = 100, 1000
			c.Seed = 7
			grid = append(grid, c)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				outs, err := sweep.Run(context.Background(), grid, sweep.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, o := range outs {
					if o.Err != nil {
						b.Fatal(o.Err)
					}
				}
			}
			b.ReportMetric(float64(len(grid)), "points/op")
		})
	}
}

// BenchmarkSweepMemoCache measures the same grid with every point
// duplicated and a memo cache attached: the duplicates must cost lookups,
// not simulations.
func BenchmarkSweepMemoCache(b *testing.B) {
	var grid []core.Config
	for _, load := range []float64{0.1, 0.2, 0.3} {
		c := core.DefaultConfig()
		c.Dims = []int{8, 8}
		c.Selection = selection.StaticXY
		c.Load = load
		c.Warmup, c.Measure = 100, 1000
		c.Seed = 7
		grid = append(grid, c, c) // duplicated point
	}
	for i := 0; i < b.N; i++ {
		cache := sweep.NewCache()
		outs, err := sweep.Run(context.Background(), grid, sweep.Options{Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outs {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
		if cache.Misses() != int64(len(grid)/2) {
			b.Fatalf("misses = %d want %d", cache.Misses(), len(grid)/2)
		}
	}
}

// BenchmarkSweepAutoFidelity compares the fixed and adaptive measurement
// tiers on the same 8-point grid at a default-tier-like budget: the
// adaptive variant truncates warmup by MSER-5 and stops each point once
// its latency CI converges, so its cycles/op (simulated cycles per grid
// pass) is the direct read on what the Auto tier saves.
func BenchmarkSweepAutoFidelity(b *testing.B) {
	mkGrid := func(auto bool) []core.Config {
		var grid []core.Config
		for _, load := range []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4} {
			c := core.DefaultConfig()
			c.Dims = []int{8, 8}
			c.Selection = selection.StaticXY
			c.Load = load
			c.Warmup, c.Measure = 300, 6000
			c.Seed = 7
			if auto {
				c.Auto = &core.AutoMeasure{RelTol: 0.05}
			}
			grid = append(grid, c)
		}
		return grid
	}
	for _, auto := range []bool{false, true} {
		name := "fixed"
		if auto {
			name = "auto"
		}
		grid := mkGrid(auto)
		b.Run(name, func(b *testing.B) {
			var cycles, delivered int64
			for i := 0; i < b.N; i++ {
				outs, err := sweep.Run(context.Background(), grid, sweep.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, o := range outs {
					if o.Err != nil {
						b.Fatal(o.Err)
					}
					cycles += o.Result.TotalCycles
					delivered += o.Result.Delivered
				}
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
			b.ReportMetric(float64(delivered)/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkBisect measures the saturation search on the 8x8 mesh: one
// full bracket-plus-bisection run per iteration against a fresh cache
// (every probe really simulates), reporting the probes and simulated
// cycles one search costs — compare against the dense-grid points the
// BisectResult reports to see the reduction.
func BenchmarkBisect(b *testing.B) {
	base := core.DefaultConfig()
	base.Dims = []int{8, 8}
	base.Selection = selection.StaticXY
	base.Warmup, base.Measure = 300, 6000
	base.Seed = 7
	spec := experiments.SaturationSpec(base, 0.1, 1.2, 0.04)
	var probes, cycles int64
	for i := 0; i < b.N; i++ {
		res, err := sweep.Bisect(context.Background(), spec, sweep.Options{Cache: sweep.NewCache()})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("search did not converge: %s", res)
		}
		probes += int64(res.Probes)
		cycles += res.SimulatedCycles
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

// BenchmarkSimulatorThroughput measures raw simulator speed: router-cycles
// per second at a loaded steady state, the number that bounds every sweep
// above.
func BenchmarkSimulatorThroughput(b *testing.B) {
	benchSimulator(b, 0.5)
}

// BenchmarkSimulatorLowLoad measures the same simulation at load 0.05,
// the low end of every latency curve, where the network is nearly empty
// and the active-set scheduler's idle-skip dominates.
func BenchmarkSimulatorLowLoad(b *testing.B) {
	benchSimulator(b, 0.05)
}

// BenchmarkSimulatorNearIdle measures the regime idle-cycle fast-forward
// targets: a load so low the network is globally empty most cycles, where
// Step jumps straight to the next injection instead of ticking silence.
// Compare its cycles/sec against BenchmarkSimulatorLowLoad (load 0.05,
// where ~9 messages are always in flight and there is little to skip).
func BenchmarkSimulatorNearIdle(b *testing.B) {
	benchSimulator(b, 0.005)
}

// benchSimulator measures the cost of one sweep point in a warm process,
// the unit every experiment grid is built from. The seed is fixed, as it
// is across the load axis of a real sweep.
func benchSimulator(b *testing.B, load float64) {
	b.Helper()
	c := benchConfig()
	c.Load = load
	c.Warmup, c.Measure = 100, 1000
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		r, err := core.Run(c)
		if err != nil {
			b.Fatal(err)
		}
		cycles += r.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
}

// Ablation benches: one design choice varied at a time.

// BenchmarkAblationVCs varies the VC count (the paper fixes 4; 2 is
// Duato's minimum with one escape channel).
func BenchmarkAblationVCs(b *testing.B) {
	for _, vcs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("vcs=%d", vcs), func(b *testing.B) {
			c := benchConfig()
			c.VCs = vcs
			c.Pattern = traffic.Transpose
			c.Load = 0.3
			runPoint(b, c)
		})
	}
}

// BenchmarkAblationEscape varies the escape-class size: more escape VCs
// means fewer adaptive ones.
func BenchmarkAblationEscape(b *testing.B) {
	for _, esc := range []int{1, 2} {
		b.Run(fmt.Sprintf("escape=%d", esc), func(b *testing.B) {
			c := benchConfig()
			c.EscapeVCs = esc
			c.Pattern = traffic.Transpose
			c.Load = 0.3
			runPoint(b, c)
		})
	}
}

// BenchmarkAblationBufDepth varies input buffer depth around the paper's
// 20 flits.
func BenchmarkAblationBufDepth(b *testing.B) {
	for _, depth := range []int{5, 20, 40} {
		b.Run(fmt.Sprintf("buf=%d", depth), func(b *testing.B) {
			c := benchConfig()
			c.BufDepth = depth
			c.Load = 0.5
			runPoint(b, c)
		})
	}
}

// BenchmarkAblationLookAheadByPattern isolates the look-ahead stage saving
// across patterns at low load, where it dominates.
func BenchmarkAblationLookAheadByPattern(b *testing.B) {
	for _, pat := range []traffic.Kind{traffic.Uniform, traffic.Shuffle} {
		for _, la := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/LA=%v", pat, la), func(b *testing.B) {
				c := benchConfig()
				c.Pattern = pat
				c.Load = 0.1
				c.LookAhead = la
				runPoint(b, c)
			})
		}
	}
}

// BenchmarkAblationSwitching compares wormhole (the paper's mode) with
// virtual cut-through at medium load.
func BenchmarkAblationSwitching(b *testing.B) {
	for _, vct := range []bool{false, true} {
		name := "wormhole"
		if vct {
			name = "cut-through"
		}
		b.Run(name, func(b *testing.B) {
			c := benchConfig()
			c.CutThrough = vct
			c.Load = 0.5
			runPoint(b, c)
		})
	}
}

// BenchmarkStencilTrace measures the trace-driven application workload
// (examples/stencil) on both pipelines.
func BenchmarkStencilTrace(b *testing.B) {
	for _, la := range []bool{false, true} {
		name := "PROUD"
		if la {
			name = "LA-PROUD"
		}
		b.Run(name, func(b *testing.B) {
			var last core.Result
			for i := 0; i < b.N; i++ {
				c := core.DefaultConfig()
				c.LookAhead = la
				tr := traffic.StencilTrace(c.Mesh(), 20, 120, 8)
				c.Trace = tr
				c.Warmup, c.Measure = tr.Total()/10, tr.Total()-tr.Total()/10
				c.Seed = int64(i + 1)
				r, err := core.Run(c)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.AvgLatency, "cycles/msg")
		})
	}
}
