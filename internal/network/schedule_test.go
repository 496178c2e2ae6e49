package network

import (
	"fmt"
	"hash/fnv"
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

// scheduleConfig assembles a network under a transient-fault schedule:
// one fault-aware routing table set per epoch, every link physically
// wired, liveness enforced dynamically (dead-port gating + transition
// purges).
func scheduleConfig(t *testing.T, m *topology.Mesh, sched *fault.Schedule, la bool, rate float64, seed int64) Config {
	t.Helper()
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	epochTables, err := BuildEpochTables(m, table.KindES, cls, sched, func(plan *fault.Plan) (routing.Algorithm, error) {
		return routing.NewFaultDuato(m, cls, plan)
	})
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFaultDuato(m, cls, sched.Plan(0))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Mesh:        m,
		Router:      router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: la},
		LinkDelay:   1,
		Algorithm:   alg,
		Class:       cls,
		Table:       table.KindES,
		Schedule:    sched,
		EpochTables: epochTables,
		Selection:   selection.LRU,
		Pattern:     traffic.New(traffic.Uniform, m),
		MsgRate:     rate,
		MsgLen:      20,
		Seed:        seed,
	}
}

// scheduleFingerprint executes a full measured run and folds every observable
// outcome — each delivery's (ID, create, inject, arrive, hops), each
// permanent loss, and the network's terminal counters — into one hash.
// Two runs with equal fingerprints made bit-identical decisions.
func scheduleFingerprint(t *testing.T, cfg Config, warmup, measure int) (string, *Network) {
	t.Helper()
	n := New(cfg)
	h := fnv.New64a()
	n.onArrive = func(msg *flow.Message, now int64) {
		fmt.Fprintf(h, "a %d %d %d %d %d\n", msg.ID, msg.CreateTime, msg.InjectTime, msg.ArriveTime, msg.Hops)
	}
	n.onLost = func(id flow.MessageID) {
		fmt.Fprintf(h, "l %d\n", id)
	}
	run := n.Run(RunParams{WarmupMessages: warmup, MeasureMessages: measure})
	n.onArrive, n.onLost = nil, nil
	if run.Saturated {
		t.Fatalf("scheduled-fault run saturated: %s", run.SatReason)
	}
	fmt.Fprintf(h, "t %d %d %d %d %d %d %d\n", n.Now(), n.Delivered(), n.DroppedFlits(), n.DroppedMessages(),
		n.ReconvergenceEpochs(), n.Retransmits(), n.Abandoned())
	return fmt.Sprintf("%x", h.Sum64()), n
}

// TestScheduleDeterminism pins the determinism claim under a full
// healthy -> faulted -> healed schedule on both execution kernels: a rerun
// of the same configuration is bit-identical — arrivals, losses and every
// counter — and the schedule really fires, destroying in-flight flits, so
// the victim purge, table swap and credit recomputation are all inside
// what the fingerprint covers.
func TestScheduleDeterminism(t *testing.T) {
	t.Parallel()
	m := topology.NewMesh(8, 8)
	// Two links and a router fail after warm traffic is flowing and heal
	// while the run is still measuring: every transition kind (down with
	// in-flight victims, up with reconvergence onto restored paths) lands
	// inside the measured window.
	sched, err := fault.ParseSchedule(m, "27-28@1500:6000,r9@2000:7000,44-45@2500")
	if err != nil {
		t.Fatal(err)
	}
	for _, la := range []bool{false, true} {
		for _, events := range []bool{false, true} {
			la, events := la, events
			t.Run(fmt.Sprintf("la=%t/events=%t", la, events), func(t *testing.T) {
				t.Parallel()
				run := func() (string, *Network) {
					cfg := scheduleConfig(t, m, sched, la, 0.004, 7)
					cfg.EventMode = events
					return scheduleFingerprint(t, cfg, 100, 2200)
				}
				got, n := run()
				if n.ReconvergenceEpochs() == 0 {
					t.Fatal("run ended before any fault transition fired")
				}
				if n.DroppedFlits() == 0 {
					t.Fatal("no in-flight flits were destroyed by the transitions; the purge path was not exercised")
				}
				if again, _ := run(); again != got {
					t.Errorf("rerun fingerprint %s != %s", again, got)
				}
			})
		}
	}
}

// scheduleTrace builds a finite workload whose injections bracket the
// schedule's fault window, so some messages are mid-flight at every
// transition.
func scheduleTrace(t *testing.T, m *topology.Mesh, nMsgs int, horizon int64, seed int64) *traffic.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	msgs := make([]traffic.TraceMsg, 0, nMsgs)
	for i := 0; i < nMsgs; i++ {
		src := topology.NodeID(rng.Intn(m.N()))
		dst := topology.NodeID(rng.Intn(m.N()))
		if src == dst {
			continue
		}
		msgs = append(msgs, traffic.TraceMsg{
			At:     int64(rng.Int63n(horizon)),
			Src:    src,
			Dst:    dst,
			Length: 1 + rng.Intn(20),
		})
	}
	trace, err := traffic.NewTrace(msgs)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// relBusyScan reports whether any NI's reliability layer still holds
// unacknowledged sends or undelivered pure acks — work that keeps the
// network from being truly quiescent even with the fabric empty.
func (n *Network) relBusyScan() bool {
	if n.rel == nil {
		return false
	}
	for id := range n.nis {
		x := &n.nis[id]
		if x.rel == nil {
			continue
		}
		if len(x.rel.pend) > 0 {
			return true
		}
		// ackPeers may hold stale entries whose ack already piggybacked
		// out; only a still-pending ack is outstanding work.
		for _, src := range x.rel.ackPeers {
			if x.rel.recv[src].ackPending {
				return true
			}
		}
	}
	return false
}

// drainQuiet steps the network past Run's stopping point (the last
// measured completion) until nothing remains anywhere: Run returns the
// moment accounting completes, which with the reliability layer on can
// leave retransmitted copies and pure acks mid-fabric and retransmission
// timers armed.
func drainQuiet(t *testing.T, n *Network, bound int) {
	t.Helper()
	for i := 0; i < bound; i++ {
		if n.Occupancy() == 0 && n.QueuedMessages() == 0 && !n.relBusyScan() {
			return
		}
		n.Step()
	}
	t.Fatalf("network not quiescent after %d extra cycles (occupancy=%d queued=%d relBusy=%t)",
		bound, n.Occupancy(), n.QueuedMessages(), n.relBusyScan())
}

// TestScheduleReliabilityExactlyOnce: with the end-to-end reliability
// layer on, a finite workload crossing a link fault-and-repair storm
// drains with every message delivered exactly once — losses recovered by
// retransmission, duplicates suppressed at the receiver, nothing
// abandoned.
func TestScheduleReliabilityExactlyOnce(t *testing.T) {
	t.Parallel()
	m := topology.NewMesh(6, 6)
	// Central links go down mid-run and heal; trace injections continue
	// through the outage so flits die on the wire and in buffers.
	sched, err := fault.ParseSchedule(m, "14-15@600:3000,20-21@700:3500,15-21@800:2800,15-16@900:3200,21-22@1000:3400")
	if err != nil {
		t.Fatal(err)
	}
	for _, events := range []bool{false, true} {
		events := events
		t.Run(fmt.Sprintf("events=%t", events), func(t *testing.T) {
			t.Parallel()
			trace := scheduleTrace(t, m, 400, 2500, 11)
			cfg := scheduleConfig(t, m, sched, true, 0, 11)
			cfg.Pattern = nil
			cfg.MsgRate = 0
			cfg.Trace = trace
			cfg.EventMode = events
			cfg.Reliability = &Reliability{RTO: 512, MaxAttempts: 30, AckDelay: 32}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			n := New(cfg)
			total := trace.Total()
			delivered := make(map[flow.MessageID]bool, total)
			n.onArrive = func(msg *flow.Message, now int64) {
				if msg.ID < 0 {
					t.Fatalf("control message %d reached the arrival observer", msg.ID)
				}
				if delivered[msg.ID] {
					t.Fatalf("message %d delivered twice", msg.ID)
				}
				delivered[msg.ID] = true
			}
			run := n.Run(RunParams{MeasureMessages: total})
			n.onArrive = nil
			if run.Saturated {
				t.Fatalf("reliable run did not drain: %s", run.SatReason)
			}
			if len(delivered) != total {
				t.Fatalf("delivered %d of %d messages", len(delivered), total)
			}
			if got := n.Abandoned(); got != 0 {
				t.Fatalf("%d messages abandoned despite generous retry budget", got)
			}
			if n.DroppedFlits() == 0 {
				t.Fatal("storm destroyed no flits; the recovery path was not exercised")
			}
			if n.Retransmits() == 0 {
				t.Fatal("no retransmissions despite destroyed flits")
			}
			drainQuiet(t, n, 500000)
			if n.Occupancy() != 0 || n.QueuedMessages() != 0 {
				t.Fatalf("drained network still holds %d flits / %d messages", n.Occupancy(), n.QueuedMessages())
			}
		})
	}
}

// TestScheduleConservationWithoutReliability: with the layer off, the
// fault schedule's losses are exact — every trace message is either
// delivered once or reported lost exactly once, with no overlap and no
// leftovers in the fabric.
func TestScheduleConservationWithoutReliability(t *testing.T) {
	t.Parallel()
	m := topology.NewMesh(6, 6)
	sched, err := fault.ParseSchedule(m, "14-15@600:3000,20-21@700:3500,15-21@800:2800,15-16@900:3200,21-22@1000:3400")
	if err != nil {
		t.Fatal(err)
	}
	trace := scheduleTrace(t, m, 400, 2500, 11)
	cfg := scheduleConfig(t, m, sched, true, 0, 11)
	cfg.Pattern = nil
	cfg.MsgRate = 0
	cfg.Trace = trace
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n := New(cfg)
	total := trace.Total()
	delivered := make(map[flow.MessageID]bool, total)
	lost := make(map[flow.MessageID]bool)
	n.onArrive = func(msg *flow.Message, now int64) {
		if delivered[msg.ID] || lost[msg.ID] {
			t.Fatalf("message %d delivered after being counted (dup=%t lost=%t)", msg.ID, delivered[msg.ID], lost[msg.ID])
		}
		delivered[msg.ID] = true
	}
	n.onLost = func(id flow.MessageID) {
		if delivered[id] || lost[id] {
			t.Fatalf("message %d lost after being counted (dup=%t delivered=%t)", id, lost[id], delivered[id])
		}
		lost[id] = true
	}
	run := n.Run(RunParams{MeasureMessages: total})
	n.onArrive, n.onLost = nil, nil
	if run.Saturated {
		t.Fatalf("run did not drain: %s", run.SatReason)
	}
	if len(delivered)+len(lost) != total {
		t.Fatalf("delivered %d + lost %d != injected %d", len(delivered), len(lost), total)
	}
	if len(lost) == 0 {
		t.Fatal("storm lost no messages; the drop accounting was not exercised")
	}
	if int64(len(lost)) != n.DroppedMessages() {
		t.Fatalf("observer saw %d losses, DroppedMessages reports %d", len(lost), n.DroppedMessages())
	}
	if n.Occupancy() != 0 || n.QueuedMessages() != 0 {
		t.Fatalf("drained network still holds %d flits / %d messages", n.Occupancy(), n.QueuedMessages())
	}
}

// TestScheduleCountersStayCoherent steps a scheduled-fault network
// cycle by cycle across its transitions and checks the incremental
// occupancy/queue counters against full scans — the purge adjusts both,
// and any slip would surface here at the exact transition cycle.
func TestScheduleCountersStayCoherent(t *testing.T) {
	t.Parallel()
	m := topology.NewMesh(6, 6)
	sched, err := fault.ParseSchedule(m, "14-15@500:2000,r22@900:2600")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scheduleConfig(t, m, sched, true, 0.005, 5)
	n := New(cfg)
	for i := 0; i < 4000; i++ {
		n.Step()
		if got, want := n.Occupancy(), n.scanOccupancy(); got != want {
			t.Fatalf("cycle %d: Occupancy counter %d, scan %d", i, got, want)
		}
		if got, want := n.QueuedMessages(), n.scanQueued(); got != want {
			t.Fatalf("cycle %d: QueuedMessages counter %d, scan %d", i, got, want)
		}
	}
	if n.ReconvergenceEpochs() != 4 {
		t.Fatalf("expected 4 transitions, saw %d", n.ReconvergenceEpochs())
	}
	if n.Delivered() == 0 {
		t.Fatal("no messages delivered in 4000 cycles")
	}
}
