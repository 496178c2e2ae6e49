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

// FuzzFaultSchedule drives random transient-fault schedules — links failing
// and healing mid-run — through finite trace workloads and checks the
// accounting identities no timed damage may violate:
//
//   - reliability layer on: exactly-once delivery. Every traced message
//     reaches its destination exactly once, nothing is abandoned (every
//     epoch is connected, so retransmission always eventually succeeds),
//     and no control message leaks to the arrival observer.
//   - reliability layer off: conservation of messages. Injected equals
//     delivered plus dropped, disjointly — each ID appears in exactly one
//     of the two sets, and the loss count matches DroppedMessages.
//   - always: the drained network holds nothing (occupancy and queue
//     scans agree with their counters at zero).
//
// Schedules are link-only: a trace pins its endpoints at build time, and
// the network (correctly) refuses workloads whose sources could be dead
// when their injections fire. Router events are covered by the directed
// schedule tests. Both execution kernels and a
// deliberately aggressive RTO (forcing retransmissions of healthy traffic,
// hence duplicate suppression) are fuzzed alongside the schedule.
//
// Run continuously with: go test -run '^$' -fuzz FuzzFaultSchedule ./internal/network
func FuzzFaultSchedule(f *testing.F) {
	f.Add(int64(1), uint8(3), true, false, false)
	f.Add(int64(2), uint8(5), false, true, true)
	f.Add(int64(3), uint8(2), true, false, true)
	f.Add(int64(4), uint8(7), false, true, false)
	f.Fuzz(func(t *testing.T, seed int64, nLinks uint8, la bool, events, rel bool) {
		m := topology.NewMesh(6, 6)
		sched, err := fault.RandomSchedule(m, 1+int(nLinks%8), 0, 4000, seed)
		if err != nil {
			t.Skip("no connected schedule for this draw")
		}
		cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
		tables, err := BuildEpochRoutes(m, table.KindES, cls, sched, func(plan *fault.Plan) (routing.Algorithm, error) {
			return routing.NewFaultDuato(m, cls, plan)
		})
		if err != nil {
			t.Skip("an epoch defeats fault-aware routing")
		}

		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		nMsgs := 50 + rng.Intn(200)
		msgs := make([]traffic.TraceMsg, 0, nMsgs)
		for i := 0; i < nMsgs; i++ {
			src := topology.NodeID(rng.Intn(m.N()))
			dst := topology.NodeID(rng.Intn(m.N()))
			if src == dst {
				continue
			}
			msgs = append(msgs, traffic.TraceMsg{
				At:     int64(rng.Intn(3500)),
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
		cfg := Config{
			Mesh:      m,
			Router:    router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: la},
			Class:     cls,
			Routes:    tables,
			Faults:    sched,
			Selection: selection.LRU,
			Trace:     trace,
			MsgLen:    20,
			Seed:      seed,
			EventMode: events,
		}
		if rel {
			cfg.Reliability = &Reliability{RTO: 256, MaxAttempts: 30, AckDelay: 16}
		}
		n := New(cfg)
		total := trace.Total()
		delivered := make(map[flow.MessageID]bool, total)
		lost := make(map[flow.MessageID]bool)
		n.onArrive = func(msg *flow.Message, now int64) {
			if msg.ID < 0 {
				t.Fatalf("control message %d reached the arrival observer", msg.ID)
			}
			if delivered[msg.ID] {
				t.Fatalf("message %d delivered twice", msg.ID)
			}
			delivered[msg.ID] = true
		}
		n.onLost = func(id flow.MessageID) {
			if lost[id] {
				t.Fatalf("message %d lost twice", id)
			}
			lost[id] = true
		}
		run := n.Run(RunParams{MeasureMessages: total})
		n.onArrive, n.onLost = nil, nil
		if run.Saturated {
			t.Fatalf("finite trace under %s did not drain: %s", sched, run.SatReason)
		}
		if rel {
			if len(lost) != 0 || n.Abandoned() != 0 {
				t.Fatalf("reliability on: %d messages lost, %d abandoned", len(lost), n.Abandoned())
			}
			if len(delivered) != total {
				t.Fatalf("reliability on: delivered %d of %d messages", len(delivered), total)
			}
		} else {
			if len(delivered)+len(lost) != total {
				t.Fatalf("conservation: delivered %d + lost %d != injected %d", len(delivered), len(lost), total)
			}
			for id := range lost {
				if delivered[id] {
					t.Fatalf("message %d both delivered and lost", id)
				}
			}
			if int64(len(lost)) != n.DroppedMessages() {
				t.Fatalf("loss replay count %d != DroppedMessages %d", len(lost), n.DroppedMessages())
			}
		}
		drainQuiet(t, n, 500000)
		checkActiveSets(t, n)
		if !n.actRouters.empty() || !n.actNIs.empty() {
			t.Fatalf("drained network still holds %d flits / %d messages", n.Occupancy(), n.QueuedMessages())
		}
	})
}
