package network

import (
	"fmt"
	"sort"

	"lapses/internal/fault"
	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/table"
	"lapses/internal/topology"
)

// Fault-schedule dynamics: how the network survives topology changing
// mid-run.
//
// A transition is applied in Step's preamble, before anything steps, so
// every component sees the same epoch for the whole cycle. One transition
// does four things, in order:
//
//  1. Mark: find every message with any state committed to dying
//     equipment — flit events in flight toward a dead link end or dead
//     router, flits buffered at one, pipeline state or output claims on
//     one, streams or queued messages at a dead node's NI — plus every
//     message addressed to a newly dead destination, plus every message
//     committed to the deadlock-free layer. The last is the
//     reconfiguration discipline: deadlock freedom is an acyclicity
//     argument about one epoch's channel order, and a worm that
//     established part of its path under the old epoch can hold buffers
//     in an order the new epoch forbids — a handful of such worms plus
//     new-epoch traffic can close a wait cycle no single table obeys
//     (observed as a hard deadlock before this rule existed). With an
//     escape layer (Duato), the argument lives entirely on the escape
//     VCs, so draining escape-committed messages at the swap suffices:
//     every epoch starts with a clean escape network and adaptive-layer
//     heads can always fall into it under the new tables. Without one
//     (deterministic routing, EscapeVCs = 0), every channel carries the
//     argument and the transition must drain all in-network messages —
//     the classic static-reconfiguration price, and exactly the
//     availability cost the adaptive router's escape layer avoids.
//  2. Sweep: erase all trace of the victims — wheel events, buffered and
//     boxed flits, claims, NI streams — counting the destroyed flits.
//     Without the reliability layer each victim is a permanent loss
//     (onLost); with it the sender's retransmission timer recovers the
//     message end to end.
//  3. Reconverge: swap every router to the epoch's routes (built over
//     the new live graph), refresh dead-port gates, and re-resolve the
//     routing state that survived (waiting headers, queued look-ahead
//     headers, in-flight head events).
//  4. Recompute flow control: destroyed flits can never return their
//     credits, so every credit counter is recomputed from its global
//     invariant — credits = BufDepth minus flits in flight toward the
//     buffer, minus flits sitting in it, minus credit events already on
//     their way back.
//
// Everything here runs only at a transition — a handful of times per run
// — so clarity wins over speed throughout.

// windowShift sizes the delivery-rate buckets (2^9 = 512 cycles) behind
// the post-fault recovery metric.
const windowShift = 9

// WindowCycles is the width in cycles of each DeliveryWindows bucket.
const WindowCycles = int64(1) << windowShift

// each visits every scheduled event in the wheel, slot by slot.
func (w *wheel[E]) each(fn func(*E)) {
	for i := range w.slots {
		for j := range w.slots[i] {
			fn(&w.slots[i][j])
		}
	}
}

// filter removes the events keep rejects and returns how many it removed.
func (w *wheel[E]) filter(keep func(*E) bool) int {
	removed := 0
	for i := range w.slots {
		s := w.slots[i][:0]
		for j := range w.slots[i] {
			if keep(&w.slots[i][j]) {
				s = append(s, w.slots[i][j])
			} else {
				removed++
			}
		}
		w.slots[i] = s
	}
	w.count -= removed
	return removed
}

// deadPortMask returns the current plan's failed-link ports of node id as
// the bitmask router.SetDeadPorts consumes.
func (n *Network) deadPortMask(id topology.NodeID) uint32 {
	var mask uint32
	for p := 1; p < n.ports; p++ {
		if n.plan.LinkDead(id, topology.Port(p)) {
			mask |= 1 << p
		}
	}
	return mask
}

// advanceEpochs applies every schedule transition due at or before now.
func (n *Network) advanceEpochs(now int64) {
	times := n.sched.Times()
	for n.epoch+1 < len(times) && times[n.epoch+1] <= now {
		n.applyTransition(n.epoch+1, now)
	}
}

// applyTransition moves the network into schedule epoch e. now is the
// cycle about to execute: Step runs it after this returns.
func (n *Network) applyTransition(e int, now int64) {
	n.epoch = e
	n.plan = n.sched.Plan(e)
	n.reconv++
	plan := n.plan

	// --- Mark ---------------------------------------------------------
	// The victim set is collected into insertion-ordered storage and then
	// sorted by message ID, so the loss replay below does not depend on the
	// scan order of wheel slots.
	vict := make(map[*flow.Message]bool)
	var order []*flow.Message
	mark := func(m *flow.Message) {
		if m != nil && !vict[m] {
			vict[m] = true
			order = append(order, m)
		}
	}
	deadEnd := func(id topology.NodeID, p topology.Port) bool {
		return plan.NodeDead(id) || plan.LinkDead(id, p)
	}
	// drained reports whether the reconfiguration discipline retires m at
	// this swap: escape-committed messages always; with no escape layer,
	// everything in the network.
	fullDrain := n.cfg.Class.EscapeVCs == 0
	drained := func(m *flow.Message) bool { return fullDrain || m.EscapeCommitted }
	n.flits.each(func(ev *flitEvent) {
		if deadEnd(ev.node, ev.port) || plan.NodeDead(ev.fl.Msg.Dst) || drained(ev.fl.Msg) {
			mark(ev.fl.Msg)
		}
	})
	for id := range n.routers {
		r := &n.routers[id]
		node := topology.NodeID(id)
		deadMask := n.deadPortMask(node)
		nodeDead := plan.NodeDead(node)
		r.ScanMessages(func(ports uint32, m *flow.Message) {
			if nodeDead || ports&deadMask != 0 || plan.NodeDead(m.Dst) || drained(m) {
				mark(m)
			}
		})
	}
	for id := range n.nis {
		x := &n.nis[id]
		nodeDead := plan.NodeDead(topology.NodeID(id))
		for _, s := range x.streams {
			if s.msg != nil && (nodeDead || plan.NodeDead(s.msg.Dst) || drained(s.msg)) {
				mark(s.msg)
			}
		}
		if nodeDead {
			for _, m := range x.queue[x.qHead:] {
				mark(m)
			}
		}
	}

	// --- Sweep --------------------------------------------------------
	victim := func(m *flow.Message) bool { return vict[m] }
	n.flits.filter(func(ev *flitEvent) bool {
		if !vict[ev.fl.Msg] {
			return true
		}
		if ev.worm {
			// A worm event is the whole message crossing the wire.
			n.droppedFlits += int64(ev.fl.Msg.Length)
		} else {
			n.droppedFlits++
		}
		return false
	})
	for id := range n.routers {
		r := &n.routers[id]
		n.droppedFlits += int64(r.PurgeMessages(victim, now-1))
		occ := r.Occupancy()
		n.totalOcc += occ - int(n.lastOcc[id])
		n.lastOcc[id] = int32(occ)
	}
	for id := range n.nis {
		x := &n.nis[id]
		for v := range x.streams {
			if m := x.streams[v].msg; m != nil && vict[m] {
				// The stream's unsent flits die with it; the flits it
				// already serialized were purged above. The injection
				// credits it holds stay consistent: the recompute below
				// rebuilds them from surviving state.
				x.streams[v] = stream{}
				n.totalQueued--
			}
		}
		if plan.NodeDead(topology.NodeID(id)) && len(x.queue) > x.qHead {
			kept := x.queue[:0]
			for _, m := range x.queue[x.qHead:] {
				if !vict[m] {
					kept = append(kept, m)
				}
			}
			n.totalQueued -= (len(x.queue) - x.qHead) - len(kept)
			x.queue = kept
			x.qHead = 0
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].ID < order[j].ID })
	for _, m := range order {
		if n.rel == nil {
			// Without the reliability layer a purged message is gone for
			// good; with it the sender still holds a copy and the
			// retransmission timer will recover it (or exhaust and report
			// the loss there).
			n.droppedMsgs++
			n.lost(m.ID)
		}
	}

	// --- Reconverge ---------------------------------------------------
	routes := n.cfg.Routes[e]
	for id := range n.routers {
		r := &n.routers[id]
		r.SetDeadPorts(n.deadPortMask(topology.NodeID(id)))
		r.Reroute(routes)
	}
	if n.cfg.Router.LookAhead {
		// In-flight look-ahead headers carry candidates computed from the
		// old epoch's lookup at the router they are about to enter — the
		// neighbor for a link traversal, the source router itself for an
		// injection — which is ev.node either way.
		n.flits.each(func(ev *flitEvent) {
			if ev.fl.Type.IsHead() {
				ev.fl.Msg.Route = routes.Lookup(ev.node, ev.fl.Msg.Dst, ev.fl.Msg.Dateline)
			}
		})
	}

	// --- Recompute flow control ---------------------------------------
	n.recomputeCredits()
}

// recomputeCredits rebuilds every credit counter — router output VCs and
// NI injection VCs — from the global invariant. The incremental credit
// protocol is exact while flits survive; a purge breaks it (destroyed
// flits never return their slots), so the counters are recomputed rather
// than patched.
func (n *Network) recomputeCredits() {
	vcs := n.cfg.Router.NumVCs
	idx := func(node topology.NodeID, p topology.Port, v flow.VCID) int {
		return (int(node)*n.ports+int(p))*vcs + int(v)
	}
	flitsTo := make([]int32, n.m.N()*n.ports*vcs)
	credsTo := make([]int32, n.m.N()*n.ports*vcs)
	niCreds := make([]int32, n.m.N()*vcs)
	n.flits.each(func(ev *flitEvent) {
		k := int32(1)
		if ev.worm {
			k = int32(ev.fl.Msg.Length)
		}
		flitsTo[idx(ev.node, ev.port, ev.vc)] += k
	})
	n.credits.each(func(ev *creditEvent) {
		switch ev.kind {
		case creditToRouter:
			credsTo[idx(ev.node, ev.port, ev.vc)] += ev.n
		case creditToNI:
			niCreds[int(ev.node)*vcs+int(ev.vc)] += ev.n
		}
	})
	depth := n.cfg.Router.BufDepth
	for id := range n.routers {
		r := &n.routers[id]
		node := topology.NodeID(id)
		for p := 1; p < n.ports; p++ {
			nb, ok := n.m.Neighbor(node, topology.Port(p))
			if !ok {
				continue
			}
			q := topology.Opposite(topology.Port(p))
			for v := 0; v < vcs; v++ {
				c := depth -
					int(flitsTo[idx(nb, q, flow.VCID(v))]) -
					n.routers[nb].BufferedFlits(q, flow.VCID(v)) -
					int(credsTo[idx(node, topology.Port(p), flow.VCID(v))])
				r.SetCredits(topology.Port(p), flow.VCID(v), c)
			}
		}
	}
	for id := range n.nis {
		x := &n.nis[id]
		node := topology.NodeID(id)
		for v := 0; v < vcs; v++ {
			c := depth -
				int(flitsTo[idx(node, topology.PortLocal, flow.VCID(v))]) -
				n.routers[id].BufferedFlits(topology.PortLocal, flow.VCID(v)) -
				int(niCreds[id*vcs+v])
			if c < 0 || c > depth {
				panic(fmt.Sprintf("network: recomputed NI credits %d for node %d vc %d outside [0,%d]", c, id, v, depth))
			}
			x.credits[v] = c
		}
	}
}

// DroppedFlits returns the number of in-flight and buffered flits
// destroyed by fault transitions so far.
func (n *Network) DroppedFlits() int64 { return n.droppedFlits }

// DroppedMessages returns the number of messages permanently lost to
// fault transitions (purged without the reliability layer, or addressed
// to a destination that died before they could be injected). With
// reliability on, losses surface through Abandoned instead.
func (n *Network) DroppedMessages() int64 { return n.droppedMsgs }

// ReconvergenceEpochs returns how many epoch transitions the network has
// applied.
func (n *Network) ReconvergenceEpochs() int64 { return n.reconv }

// DeliveryWindows returns first deliveries per 2^windowShift-cycle bucket
// (only collected while a schedule is active).
func (n *Network) DeliveryWindows() []int64 { return n.windows }

// BuildEpochRoutes builds Config.Routes: the routes a table of kind
// encodes for each epoch of sched (one for a nil schedule), using alg to
// construct the epoch's routing algorithm from its fault plan (nil for a
// healthy network, empty for a schedule's healthy epochs). Callers choose
// the policy — core builds fault-aware Duato or dimension-order algorithms
// under damage — so the network stays policy-agnostic.
func BuildEpochRoutes(m *topology.Mesh, kind table.Kind, cls routing.Class, sched *fault.Schedule,
	alg func(plan *fault.Plan) (routing.Algorithm, error)) ([]*table.Routes, error) {
	out := make([]*table.Routes, sched.Epochs())
	for e := range out {
		a, err := alg(sched.Plan(e))
		if err != nil {
			return nil, fmt.Errorf("network: epoch %d: %w", e, err)
		}
		out[e] = table.Program(kind, m, a, cls)
	}
	return out, nil
}
