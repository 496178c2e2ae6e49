package network

import (
	"math/rand"
	"testing"

	"lapses/internal/fault"
	"lapses/internal/flow"
	"lapses/internal/router"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// FuzzFaultPlan feeds random fault plans and configurations through short
// measured runs and checks the invariants no degraded topology may
// violate:
//
//  1. no panic anywhere in construction or simulation;
//  2. no lost or duplicated messages — a trace-driven workload drains
//     completely, every message ID delivered exactly once;
//  3. flit conservation — link traversals equal the sum over delivered
//     messages of hops x length, and nothing stays buffered or queued
//     after the drain;
//  4. dead equipment stays dark — zero flits on failed links.
//
// The execution kernel (cycle- vs event-driven) is fuzzed alongside the
// fault plan: the event kernel's express machinery must conserve
// messages and flits over the same degraded topologies it never sees in
// the timing-pinned tests. The notify axis swaps in the notification
// selector, whose credit-piggybacked congestion filter must keep every
// invariant over damaged meshes too (a dead link's port never reports,
// so its stale level must not trap worms).
//
// Run continuously with: go test -run '^$' -fuzz FuzzFaultPlan ./internal/network
func FuzzFaultPlan(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(1), true, false, false, false)
	f.Add(int64(2), uint8(0), uint8(0), false, false, true, true)
	f.Add(int64(3), uint8(6), uint8(2), true, true, true, false)
	f.Add(int64(4), uint8(1), uint8(0), false, true, false, true)
	f.Fuzz(func(t *testing.T, seed int64, nLinks, nRouters uint8, la, torus bool, events, notify bool) {
		m := topology.NewMesh(6, 6)
		if torus {
			m = topology.NewTorus(5, 5)
		}
		plan, err := fault.Random(m, int(nLinks%8), int(nRouters%3), seed)
		if err != nil {
			t.Skip("requested damage exceeds the topology's resilience")
		}
		cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
		alg, err := routing.NewFaultDuato(m, cls, plan)
		if err != nil {
			t.Skip("plan disconnects the network")
		}

		// Trace-driven conservation run: a finite workload between live
		// nodes, driven until every message drains. Router faults are
		// modeled by keeping trace endpoints live (core.Config.Validate
		// rejects traces that could target dead NIs).
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		var live []topology.NodeID
		for id := 0; id < m.N(); id++ {
			if !plan.NodeDead(topology.NodeID(id)) {
				live = append(live, topology.NodeID(id))
			}
		}
		nMsgs := 50 + rng.Intn(200)
		msgs := make([]traffic.TraceMsg, 0, nMsgs)
		for i := 0; i < nMsgs; i++ {
			src := live[rng.Intn(len(live))]
			dst := live[rng.Intn(len(live))]
			if src == dst {
				continue
			}
			msgs = append(msgs, traffic.TraceMsg{
				At:     int64(rng.Intn(4000)),
				Src:    src,
				Dst:    dst,
				Length: 1 + rng.Intn(20),
			})
		}
		if len(msgs) == 0 {
			t.Skip("degenerate trace")
		}
		trace, err := traffic.NewTrace(msgs)
		if err != nil {
			t.Fatal(err)
		}
		linkPlan := plan
		if plan.NumRouters() > 0 {
			// Same link damage without the dead routers for the trace leg.
			if linkPlan, err = fault.New(m, plan.Links(), nil); err != nil {
				t.Fatal(err)
			}
			if alg, err = routing.NewFaultDuato(m, cls, linkPlan); err != nil {
				t.Skip("link-only plan disconnects the network")
			}
		}
		sel := selection.LRU
		if notify {
			sel = selection.NotifyLRU
		}
		cfg := Config{
			Mesh:      m,
			Router:    router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: la},
			Class:     cls,
			Routes:    oneEpoch(table.KindES, m, alg, cls),
			Faults:    fault.Static(linkPlan),
			Selection: sel,
			Trace:     trace,
			MsgLen:    20,
			Seed:      seed,
			EventMode: events,
		}
		n := New(cfg)
		delivered := make(map[flow.MessageID]bool, len(msgs))
		var linkFlits uint64
		n.onArrive = func(msg *flow.Message, now int64) {
			if delivered[msg.ID] {
				t.Fatalf("message %d delivered twice", msg.ID)
			}
			delivered[msg.ID] = true
			linkFlits += uint64(msg.Hops) * uint64(msg.Length)
		}
		run := n.Run(RunParams{MeasureMessages: len(msgs)})
		n.onArrive = nil
		if run.Saturated {
			t.Fatalf("finite trace over faulted %s did not drain: %s", m, run.SatReason)
		}
		if len(delivered) != len(msgs) {
			t.Fatalf("delivered %d of %d messages", len(delivered), len(msgs))
		}
		checkActiveSets(t, n)
		if !n.actRouters.empty() || !n.actNIs.empty() {
			t.Fatalf("drained network still holds %d flits / %d messages", n.Occupancy(), n.QueuedMessages())
		}
		if got := n.TotalLinkFlits(); got != linkFlits {
			t.Fatalf("link flit conservation: traversals %d != sum(hops*len) %d", got, linkFlits)
		}
		for _, s := range n.LinkStats() {
			if s.Port != topology.PortLocal && linkPlan.LinkDead(s.From, s.Port) && s.Flits != 0 {
				t.Fatalf("dead link %d/%s carried %d flits", s.From, m.PortName(s.Port), s.Flits)
			}
		}
	})
}
