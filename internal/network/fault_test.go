package network

import (
	"testing"

	"lapses/internal/fault"
	"lapses/internal/router"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// faultConfig assembles a degraded network: fault-aware routing and
// tables over plan, with the physical consequences (dead ports, inert
// NIs) enforced by the fabric.
func faultConfig(t *testing.T, m *topology.Mesh, plan *fault.Plan, lookAhead bool, rate float64, seed int64) Config {
	t.Helper()
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	alg, err := routing.NewFaultDuato(m, cls, plan)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Mesh:      m,
		Router:    router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: lookAhead},
		Class:     cls,
		Routes:    oneEpoch(table.KindES, m, alg, cls),
		Faults:    fault.Static(plan),
		Selection: selection.LRU,
		Pattern:   traffic.New(traffic.Uniform, m),
		MsgRate:   rate,
		MsgLen:    20,
		Seed:      seed,
	}
}

// TestFaultedRunAvoidsDeadEquipment completes the degraded-routing
// property test at the system level: a full measured run over a faulted
// network delivers its traffic while every failed link and every port of
// every failed router carries exactly zero flits.
func TestFaultedRunAvoidsDeadEquipment(t *testing.T) {
	m := topology.NewMesh(8, 8)
	for seed := int64(1); seed <= 3; seed++ {
		plan, err := fault.Random(m, 5, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, la := range []bool{false, true} {
			n := New(faultConfig(t, m, plan, la, 0.004, seed))
			run := n.Run(RunParams{WarmupMessages: 100, MeasureMessages: 1500})
			if run.Saturated {
				t.Fatalf("seed %d la=%t: low-load faulted run saturated: %s", seed, la, run.SatReason)
			}
			if n.Delivered() < 1500 {
				t.Fatalf("seed %d la=%t: delivered %d < 1500", seed, la, n.Delivered())
			}
			for _, s := range n.LinkStats() {
				if s.Port == topology.PortLocal {
					if plan.NodeDead(s.From) && s.Flits != 0 {
						t.Fatalf("seed %d la=%t: dead router %d ejected %d flits", seed, la, s.From, s.Flits)
					}
					continue
				}
				if (plan.LinkDead(s.From, s.Port) || plan.NodeDead(s.From)) && s.Flits != 0 {
					t.Fatalf("seed %d la=%t: dead link %d/%s carried %d flits",
						seed, la, s.From, m.PortName(s.Port), s.Flits)
				}
			}
		}
	}
}
