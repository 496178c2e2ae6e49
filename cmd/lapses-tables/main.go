// Command lapses-tables prints routing-table programmings, reproducing the
// paper's worked examples:
//
//	lapses-tables              # Fig. 7: ES table, North-Last, 3x3 mesh, node (1,1)
//	lapses-tables -alg duato   # the same node programmed for Duato routing
//	lapses-tables -meta        # Fig. 8: both meta-table mappings on 16x16
//	lapses-tables -interval    # interval table (YX) for a node on 8x8
//	lapses-tables -verify      # every table equals its algorithm
//
// -verify checks statically that every table organization programs exactly
// the routing function it encodes: for each organization x algorithm x
// {1,2,3}-D x {mesh, torus} that core.Validate accepts, table.Verify
// compares every lookup at every router, destination and dateline state
// with the algorithm, and holds the algorithm to what the organization can
// express; the first failure fails the command and names it. Every router
// of a structure, and its look-ahead lookups, read one shared table.Routes,
// so this is also the paper's ES == full-table equivalence. -meta,
// -interval and -verify are exclusive, -alg applies only to the Fig. 7
// table, and the command takes no arguments.
package main

import (
	"flag"
	"fmt"
	"os"

	"lapses/internal/core"
	"lapses/internal/table"
	"lapses/internal/topology"
)

func main() {
	a := core.AlgNorthLast
	flag.TextVar(&a, "alg", a, "algorithm to program: xy, yx, duato, north-last, west-first, negative-first")
	meta := flag.Bool("meta", false, "print the Fig. 8 meta-table mappings instead")
	interval := flag.Bool("interval", false, "print an interval table instead")
	verify := flag.Bool("verify", false, "check that every table organization routes exactly as its algorithm")
	flag.Parse()
	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	modes := 0
	for _, on := range []bool{*meta, *interval, *verify} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		usage(fmt.Errorf("-meta, -interval and -verify are exclusive; give one"))
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "alg" && modes > 0 {
			usage(fmt.Errorf("-alg applies only to the Fig. 7 table: -meta, -interval and -verify fix their own algorithms"))
		}
	})

	if *verify {
		if err := verifyTables(); err != nil {
			fmt.Fprintln(os.Stderr, "lapses-tables:", err)
			os.Exit(1)
		}
		return
	}

	// Every view programs the router the simulator would build: the
	// routing function and VC partition of a config.
	c := core.DefaultConfig()
	switch {
	case *meta:
		c.Algorithm = core.AlgDuato
	case *interval:
		c.Dims, c.Algorithm = []int{8, 8}, core.AlgYX
	default:
		c.Dims, c.Algorithm = []int{3, 3}, a
	}
	alg, cls, err := c.Routing()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lapses-tables:", err)
		os.Exit(2)
	}
	m := c.Mesh()

	if *meta {
		fmt.Println("Fig. 8(a): row mapping (minimal flexibility; cluster/label per node, top row = y15)")
		fmt.Println(table.NewMeta(m, alg, cls, table.MapRow).DumpMapping())
		fmt.Println("Fig. 8(b): block mapping (maximal flexibility)")
		fmt.Println(table.NewMeta(m, alg, cls, table.MapBlock).DumpMapping())
		return
	}

	if *interval {
		node := m.ID(topology.Coord{3, 3})
		lo, hi, err := table.Intervals(m, alg, node)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lapses-tables:", err)
			os.Exit(1)
		}
		fmt.Printf("Interval table for node (3,3) of %s, YX routing:\n", m)
		for p := range lo {
			if lo[p] > hi[p] {
				fmt.Printf("  %-3s  (unused)\n", m.PortName(topology.Port(p)))
				continue
			}
			fmt.Printf("  %-3s  labels [%d, %d]\n", m.PortName(topology.Port(p)), lo[p], hi[p])
		}
		return
	}

	// A mesh's ES row is the same at every router, so the structure's
	// shared row is node (1,1)'s table.
	fmt.Printf("Fig. 7: economical-storage table at node (1,1) of a 3x3 mesh, %s routing\n", alg.Name())
	fmt.Printf("(sign of destination offset (sx,sy) -> permitted output ports; %d entries)\n\n", table.KindES.Entries(m))
	fmt.Print(table.Program(table.KindES, m, alg, cls).Dump())
}

// usage reports a flag error the way the flag package does: the error, the
// flag summary, exit status 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "lapses-tables:", err)
	flag.Usage()
	os.Exit(2)
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
	fmt.Printf("every lookup equals its algorithm: %d (organization, algorithm, topology) combinations\n", checked)
	return nil
}
