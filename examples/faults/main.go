// Faults demonstrates degraded-topology simulation: the same 8x8 mesh
// loses progressively more links, and the adaptive LAPSES router (Duato +
// ES tables + LRU selection) is compared against deterministic routing
// recomputed over the damage. Adaptive routing barely notices the first
// failures — its path diversity absorbs them — while the deterministic
// function, forced into up*/down* detours, degrades immediately.
package main

import (
	"fmt"
	"log"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/selection"
)

func main() {
	fmt.Println("Degraded 8x8 mesh, uniform traffic at load 0.3: latency by failed links")
	fmt.Printf("%-14s %-28s %12s %12s\n", "failed links", "plan", "adaptive", "deterministic")

	for _, n := range []int{0, 2, 4, 6} {
		base := core.DefaultConfig()
		base.Dims = []int{8, 8}
		base.Load = 0.3
		base.Warmup, base.Measure = 500, 8000

		var plan *fault.Plan
		if n > 0 {
			var err error
			// Seeded random damage; the generator only returns plans that
			// keep the live network connected.
			if plan, err = fault.Random(base.Mesh(), n, 0, 42); err != nil {
				log.Fatal(err)
			}
		}
		// A static plan is the one-epoch fault schedule.
		base.Faults = fault.Static(plan)

		cells := make([]string, 0, 2)
		for _, alg := range []core.Alg{core.AlgDuato, core.AlgXY} {
			cfg := base
			cfg.Algorithm = alg
			if alg == core.AlgXY {
				cfg.Selection = selection.StaticXY
			}
			res, err := core.Run(cfg)
			if err != nil {
				log.Fatal(err)
			}
			cells = append(cells, res.LatencyString())
		}
		key := "-"
		if plan != nil {
			key = plan.Key()
		}
		if len(key) > 28 {
			key = key[:25] + "..."
		}
		fmt.Printf("%-14d %-28s %12s %12s\n", n, key, cells[0], cells[1])
	}
	fmt.Println("\n\"Sat.\" marks saturation; see cmd/lapses-experiments -exp resilience for the full study.")
}
