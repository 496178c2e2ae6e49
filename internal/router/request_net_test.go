package router_test

import (
	"testing"

	"lapses/internal/fault"
	"lapses/internal/network"
	"lapses/internal/router"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// TestRequestStateMatchesScan is the router-level twin of the network's
// TestActiveSetCoversAllWork: the router's standing masks (crossbar
// requests, sendable and free output VCs, waiting headers, boxes) and its
// occupancy are maintained at the events that change them, and after every
// Step of every router they must equal what a full scan of phases,
// buffers, boxes, credits and owners finds. The runs cover the regimes
// that maintain the masks differently: saturation (parked worms, full
// boxes, exhausted credits), a torus (datelines, two escape VCs), the
// event kernel (express claims, batched credits, deferred releases) and a
// fault schedule (purge + rebuild + recomputed credits) under both
// pipelines, PROUD's restarted headers being looked up at the purge. The
// single-router half runs inside TestQuickRouterInvariants.
func TestRequestStateMatchesScan(t *testing.T) {
	const msgLen = 20
	base := func(m *topology.Mesh, escapeVCs int, load float64) network.Config {
		cls := routing.Class{NumVCs: 4, EscapeVCs: escapeVCs}
		return network.Config{
			Mesh:      m,
			Router:    router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: true},
			Class:     cls,
			Routes:    []*table.Routes{table.Program(table.KindES, m, routing.NewDuato(m, cls), cls)},
			Selection: selection.LRU,
			Pattern:   traffic.New(traffic.Uniform, m),
			MsgRate:   traffic.MessageRate(m, load, msgLen),
			MsgLen:    msgLen,
			Seed:      5,
		}
	}
	mesh := topology.NewMesh(8, 8)
	sched, err := fault.ParseSchedule(mesh, "27-28@400:1200,r9@600:1500")
	if err != nil {
		t.Fatal(err)
	}
	faulted := func(t *testing.T, la bool) network.Config {
		cfg := base(mesh, 1, 0.5)
		cfg.Router.LookAhead = la
		build := func(plan *fault.Plan) (routing.Algorithm, error) {
			return routing.NewFaultDuato(mesh, cfg.Class, plan)
		}
		cfg.Faults = sched
		if cfg.Routes, err = network.BuildEpochRoutes(mesh, table.KindES, cfg.Class, sched, build); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	for _, c := range []struct {
		name   string
		cycles int
		cfg    func(t *testing.T) network.Config
	}{
		{"saturated", 2500, func(*testing.T) network.Config { return base(mesh, 1, 0.9) }},
		{"torus", 2500, func(*testing.T) network.Config { return base(topology.NewTorus(6, 6), 2, 0.7) }},
		{"event", 4000, func(*testing.T) network.Config {
			cfg := base(mesh, 1, 0.2)
			cfg.EventMode = true
			return cfg
		}},
		{"fault-schedule", 2000, func(t *testing.T) network.Config { return faulted(t, true) }},
		{"fault-schedule-proud", 2000, func(t *testing.T) network.Config { return faulted(t, false) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(t)
			n := network.New(cfg)
			for i := 0; i < c.cycles; i++ {
				n.Step()
				for id := 0; id < cfg.Mesh.N(); id++ {
					if err := n.Router(topology.NodeID(id)).CheckRequestState(); err != nil {
						t.Fatalf("after cycle %d: %v", n.Now()-1, err)
					}
				}
			}
			if n.Delivered() == 0 {
				t.Fatal("nothing was delivered; the run exercised no traffic")
			}
			if cfg.Faults != nil && n.DroppedFlits() == 0 {
				t.Fatal("no flit was purged; the rebuild path was not exercised")
			}
		})
	}
}
