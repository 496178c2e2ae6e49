// Torus3d exercises the economical-storage generalizations the paper
// sketches in section 5.2.1: a 27-entry ES table on a 3-D mesh (the Cray
// T3D's 2048-entry table shrinks to 27) and dateline-based deadlock-free
// adaptive routing on a 2-D torus.
package main

import (
	"fmt"
	"log"

	"lapses/internal/core"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

func main() {
	// A 512-node 3-D mesh routed with 27-entry tables.
	m3 := topology.NewMesh(8, 8, 8)
	fmt.Printf("3-D mesh %s: full table would need %d entries per router; ES needs %d\n",
		m3, table.KindFull.Entries(m3), table.KindES.Entries(m3))

	cfg := core.DefaultConfig()
	cfg.Dims = []int{8, 8, 8}
	cfg.Pattern = traffic.Uniform
	cfg.Load = 0.3
	cfg.Warmup, cfg.Measure = 500, 6000
	res, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  uniform @0.3: latency %s cycles, %.2f hops, %.4f flits/node/cycle\n\n",
		res.LatencyString(), res.AvgHops, res.Throughput)

	// A 2-D torus: wraparound halves the average distance but needs two
	// escape VCs split around the dateline for deadlock freedom.
	cfg = core.DefaultConfig()
	cfg.Torus = true
	cfg.EscapeVCs = 2
	cfg.Table = table.KindFull
	cfg.Pattern = traffic.Uniform
	cfg.Load = 0.3
	cfg.Warmup, cfg.Measure = 500, 6000
	resT, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("16x16 torus, Duato routing with dateline escape VCs:\n")
	fmt.Printf("  uniform @0.3: latency %s cycles, %.2f hops (mesh was ~10.6)\n",
		resT.LatencyString(), resT.AvgHops)
}
