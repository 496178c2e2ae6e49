// Command lapses-tables prints routing-table programmings, reproducing the
// paper's worked examples:
//
//	lapses-tables              # Fig. 7: ES table, North-Last, 3x3 mesh, node (1,1)
//	lapses-tables -alg duato   # the same node programmed for Duato routing
//	lapses-tables -meta        # Fig. 8: both meta-table mappings on 16x16
//	lapses-tables -interval    # interval table (YX) for a node on 8x8
//	lapses-tables -verify      # every table equals its algorithm; ES == full in a sweep
//
// -verify first checks statically that every table organization programs
// exactly the routing function it encodes: for each organization x
// algorithm x {1,2,3}-D x {mesh, torus} that core.Validate accepts,
// table.Verify compares every lookup and look-ahead lookup at every
// router, destination and dateline state with the algorithm; the first
// mismatch fails the command and names it. It then runs a quick
// (pattern x load) grid through the concurrent internal/sweep engine,
// simulating each point under both the full routing table and economical
// storage and checking the results are bit-identical — the equivalence
// Table 4 reports. -workers bounds the
// sweep's worker pool (0 = GOMAXPROCS). -events runs the grid on the
// event-driven kernel instead: table organization never changes a
// routing decision, so ES and full-table stay bit-identical per kernel
// even though the two kernels are not bit-comparable to each other.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"lapses/internal/core"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/sweep"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

func main() {
	algName := flag.String("alg", "north-last", "algorithm to program: xy, yx, duato, north-last, west-first, negative-first")
	meta := flag.Bool("meta", false, "print the Fig. 8 meta-table mappings instead")
	interval := flag.Bool("interval", false, "print an interval table instead")
	verify := flag.Bool("verify", false, "sweep-check that ES tables route identically to full tables")
	workers := flag.Int("workers", 0, "concurrent simulations for -verify (0 = GOMAXPROCS)")
	events := flag.Bool("events", false, "run the -verify sweep on the event-driven kernel")
	flag.Parse()

	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}

	if *verify {
		err := verifyTables()
		if err == nil {
			err = verifyES(*workers, *events)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lapses-tables:", err)
			os.Exit(1)
		}
		return
	}

	if *meta {
		m := topology.NewMesh(16, 16)
		alg := routing.NewDuato(m, cls)
		fmt.Println("Fig. 8(a): row mapping (minimal flexibility; cluster/label per node, top row = y15)")
		fmt.Println(table.NewMeta(m, alg, cls, 0, table.MapRow).DumpMapping())
		fmt.Println("Fig. 8(b): block mapping (maximal flexibility)")
		fmt.Println(table.NewMeta(m, alg, cls, 0, table.MapBlock).DumpMapping())
		return
	}

	if *interval {
		m := topology.NewMesh(8, 8)
		yx := routing.NewDimOrder(m, cls, []int{1, 0})
		node := m.ID(topology.Coord{3, 3})
		iv := table.NewInterval(m, yx, cls, node)
		fmt.Printf("Interval table for node (3,3) of %s, YX routing:\n", m)
		for p := topology.Port(0); int(p) < m.NumPorts(); p++ {
			lo, hi, ok := iv.Intervals(p)
			if !ok {
				fmt.Printf("  %-3s  (unused)\n", m.PortName(p))
				continue
			}
			fmt.Printf("  %-3s  labels [%d, %d]\n", m.PortName(p), lo, hi)
		}
		return
	}

	a, err := core.ParseAlg(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lapses-tables:", err)
		os.Exit(2)
	}
	c := core.DefaultConfig()
	c.Dims, c.Algorithm = []int{3, 3}, a
	alg, _, err := c.Routing()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lapses-tables:", err)
		os.Exit(2)
	}
	m := c.Mesh()
	node := m.ID(topology.Coord{1, 1})
	es := table.NewES(m, alg, node)
	fmt.Printf("Fig. 7: economical-storage table at node (1,1) of a 3x3 mesh, %s routing\n", alg.Name())
	fmt.Printf("(sign of destination offset (sx,sy) -> permitted output ports; %d entries)\n\n", es.Entries())
	fmt.Print(es.Dump())
}

// verifyTables runs table.Verify over every table organization x
// algorithm x {1,2,3}-D x {mesh, torus} that core.Validate accepts. The
// radices are small but include odd, even and radix-2 dimensions: a
// radix-2 torus dimension never realizes a "-" sign.
func verifyTables() error {
	checked := 0
	for _, dims := range [][]int{{7}, {6, 5}, {4, 3, 2}} {
		for _, torus := range []bool{false, true} {
			for _, a := range core.Algs {
				for _, k := range table.Kinds {
					c := core.DefaultConfig()
					c.Dims, c.Torus, c.Algorithm, c.Table = dims, torus, a, k
					if c.Validate() != nil {
						continue
					}
					alg, cls, err := c.Routing()
					if err == nil {
						err = table.Verify(k, c.Mesh(), alg, cls)
					}
					if err != nil {
						return err
					}
					checked++
				}
			}
		}
	}
	fmt.Printf("every lookup equals its algorithm: %d (organization, algorithm, topology) combinations\n\n", checked)
	return nil
}

// verifyES sweeps a quick (pattern x load) grid, each point once with the
// full routing table and once with economical storage, and checks the
// Results are bit-identical — the paper's Table 4 claim. The equivalence
// is kernel-independent: with events the grid runs event-driven and the
// per-point pairs must still match bit for bit.
func verifyES(workers int, events bool) error {
	patterns := []traffic.Kind{traffic.Uniform, traffic.Transpose, traffic.BitReversal}
	loads := []float64{0.1, 0.2, 0.3}
	var grid []core.Config
	for _, pat := range patterns {
		for _, load := range loads {
			for _, tk := range []table.Kind{table.KindFull, table.KindES} {
				c := core.DefaultConfig().QuickFidelity()
				c.Selection = selection.StaticXY
				c.Pattern = pat
				c.Load = load
				c.Table = tk
				c.EventMode = events
				grid = append(grid, c)
			}
		}
	}
	outs, err := sweep.Run(context.Background(), grid, sweep.Options{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("ES-vs-full-table equivalence, %d points, quick fidelity:\n", len(grid)/2)
	fmt.Printf("%-13s %-5s %12s %12s  %s\n", "Traffic", "Load", "Full-Tbl", "Econ-Stor", "identical")
	bad := 0
	for i := 0; i < len(outs); i += 2 {
		full, es := outs[i], outs[i+1]
		if full.Err != nil {
			return full.Err
		}
		if es.Err != nil {
			return es.Err
		}
		same := full.Result == es.Result
		if !same {
			bad++
		}
		fmt.Printf("%-13s %-5.1f %12s %12s  %v\n",
			full.Config.Pattern, full.Config.Load,
			full.Result.LatencyString(), es.Result.LatencyString(), same)
	}
	if bad > 0 {
		return fmt.Errorf("%d points diverged between full table and ES", bad)
	}
	fmt.Println("all points identical")
	return nil
}
