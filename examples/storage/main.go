// Storage contrasts the routing-table organizations of section 5: it
// prints the storage cost of each scheme on the 16x16 mesh, shows the
// 9-entry economical-storage programming of one router, and then measures
// that ES delivers exactly full-table performance while the meta-table
// mappings fall behind (bit-reversal traffic, the paper's Table 4).
package main

import (
	"fmt"
	"log"

	"lapses/internal/core"
	"lapses/internal/table"
	"lapses/internal/traffic"
)

func main() {
	// The default config is the paper's 16x16 mesh under Duato routing;
	// its tables are programmed from this routing function and VC class.
	base := core.DefaultConfig()
	duato, cls, err := base.Routing()
	if err != nil {
		log.Fatal(err)
	}
	m := base.Mesh()

	fmt.Println("Routing-table storage on a 256-node mesh (entries per router):")
	for _, k := range []table.Kind{table.KindFull, table.KindMetaRow, table.KindMetaBlock, table.KindES} {
		fmt.Printf("  %-12s %4d entries\n", k, k.Entries(m))
	}

	// Every router of a mesh holds the same ES row; router (7,7)'s is the
	// structure's.
	es := table.Program(table.KindES, m, duato, cls)
	fmt.Printf("\nES programming of router (7,7) for Duato's fully adaptive routing:\n%s\n", es.Dump())

	fmt.Println("Latency under bit-reversal traffic (LA adaptive router):")
	fmt.Printf("%-6s %12s %12s %12s %12s\n", "load", "full", "es", "meta-row", "meta-block")
	for _, load := range []float64{0.1, 0.2, 0.3} {
		fmt.Printf("%-6.1f", load)
		for _, tk := range []table.Kind{table.KindFull, table.KindES, table.KindMetaRow, table.KindMetaBlock} {
			cfg := core.DefaultConfig()
			cfg.Table = tk
			cfg.Pattern = traffic.BitReversal
			cfg.Load = load
			cfg.Warmup, cfg.Measure = 500, 8000
			res, err := core.Run(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %12s", res.LatencyString())
		}
		fmt.Println()
	}
	fmt.Println("\nfull == es exactly (same routing function, 256 vs 9 entries).")
}
