package network

import (
	"testing"

	"lapses/internal/fault"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// Occupancy and QueuedMessages scan what the kernel no longer counts: the
// flits buffered across all routers and the messages waiting or streaming
// in source queues.
func (n *Network) Occupancy() int {
	total := 0
	for id := range n.routers {
		total += n.routers[id].Occupancy()
	}
	return total
}

func (n *Network) QueuedMessages() int {
	total := 0
	for id := range n.nis {
		total += n.nis[id].pending()
	}
	return total
}

// ackArmed reports whether the NI's reliability layer holds a pure
// acknowledgment it has not sent yet. ackPeers may hold stale entries
// whose ack already piggybacked out; only a still-pending ack counts.
func (x *ni) ackArmed() bool {
	if x.rel == nil {
		return false
	}
	for _, src := range x.rel.ackPeers {
		if x.rel.recv[src].ackPending {
			return true
		}
	}
	return false
}

// checkActiveSets holds the active sets to a full scan between steps, the
// fact idle() and Run's progress guard rest on: a router is on actRouters
// exactly when it buffers flits, and an NI is on actNIs exactly when it
// has messages queued or streaming. The one member with nothing pending is
// an NI whose reliability layer armed an acknowledgment during this
// cycle's ejections; it ticks next cycle to park on a wake. The flit that
// armed it left a credit on the wheel, so idle() reads false either way.
func checkActiveSets(t *testing.T, n *Network) {
	t.Helper()
	for id := range n.routers {
		occ := n.routers[id].Occupancy()
		if on := n.actRouters.has(id); on != (occ > 0) {
			t.Fatalf("cycle %d: router %d buffers %d flits, on the active set: %t", n.now, id, occ, on)
		}
	}
	for id := range n.nis {
		x := &n.nis[id]
		pending, on := x.pending(), n.actNIs.has(id)
		if on == (pending > 0) || on && x.ackArmed() && n.credits.count > 0 {
			continue
		}
		t.Fatalf("cycle %d: NI %d has %d messages pending, on the active set: %t", n.now, id, pending, on)
	}
}

// The active sets must hold exactly the components with work after every
// step: on a healthy mesh under both pipelines, under a static fault plan
// whose dead routers never wake, across a timed link-and-router storm whose
// purges drain routers and streams between steps (with and without the
// reliability layer, whose acks reactivate NIs from inside a router's
// tick), and on the event kernel, whose express path ejects without
// buffering.
func TestActiveSetCoversAllWork(t *testing.T) {
	m8, m6 := topology.NewMesh(8, 8), topology.NewMesh(6, 6)
	plan, err := fault.Random(m6, 4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	storm, err := fault.ParseSchedule(m6, "14-15@500:2000,r22@900:2600")
	if err != nil {
		t.Fatal(err)
	}
	stormConfig := func(rel bool) Config {
		cfg := scheduleConfig(t, m6, storm, true, 0.005, 5)
		if rel {
			cfg.Reliability = &Reliability{RTO: 256, MaxAttempts: 30, AckDelay: 16}
		}
		return cfg
	}
	event := testConfig(m8, true, table.KindES, selection.LRU, traffic.New(traffic.Uniform, m8), 0.01, 7)
	event.EventMode = true
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"proud", testConfig(m8, false, table.KindFull, selection.MinMux, traffic.New(traffic.Transpose, m8), 0.02, 5)},
		{"la", testConfig(m8, true, table.KindES, selection.LRU, traffic.New(traffic.Uniform, m8), 0.01, 3)},
		{"static-faults", faultConfig(t, m6, plan, true, 0.005, 5)},
		{"storm", stormConfig(false)},
		{"storm-reliability", stormConfig(true)},
		{"event", event},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			n := New(c.cfg)
			for i := 0; i < 4000; i++ {
				n.Step()
				checkActiveSets(t, n)
			}
			if n.Delivered() == 0 {
				t.Fatal("no messages delivered in 4000 cycles")
			}
			if c.cfg.Faults.Epochs() > 1 && (n.ReconvergenceEpochs() != 4 || n.DroppedFlits() == 0) {
				t.Fatalf("%d transitions purged %d flits; want 4 transitions and a purge", n.ReconvergenceEpochs(), n.DroppedFlits())
			}
		})
	}
}

// At a loaded steady state, Step must not allocate: the wheels, buffers,
// queues and message pool all reach their high-water marks during warmup
// and are reused thereafter.
func TestStepSteadyStateAllocationFree(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		m := topology.NewMesh(8, 8)
		cfg := testConfig(m, true, table.KindES, selection.LRU, traffic.New(traffic.Uniform, m), 0.02, 11)
		n := New(cfg)
		n.recycle = true // Run enables this; drive Step directly here
		for i := 0; i < 20000; i++ {
			n.Step()
		}
		avg := testing.AllocsPerRun(2000, func() { n.Step() })
		// A strict zero would be flaky (a rare source-queue or heap
		// growth past the prior high-water mark is legitimate); ~zero
		// is the contract.
		if avg > 0.01 {
			t.Fatalf("steady-state Step allocates %v allocs/op, want ~0", avg)
		}
	})
}
