package network

import (
	"lapses/internal/flow"
	"lapses/internal/topology"
)

// stepCycle executes cycle now: due NI wakes, credits, flits, then the
// active NIs and the active routers, each in ascending node order.
func (n *Network) stepCycle(now int64) {
	for n.wakes.len() > 0 && n.wakes.top().at <= now {
		n.actNIs.add(int(n.wakes.pop().node))
	}

	for _, e := range n.credits.take(now) {
		switch e.kind {
		case creditToRouter:
			n.routers[e.node].AcceptCredits(e.port, e.vc, int(e.n))
			if n.notify {
				// Deliver the piggybacked congestion notification with
				// the credit: the per-port register updates in credit
				// order.
				n.routers[e.node].NoteCongestion(e.port, e.cong)
			}
		case creditToNI:
			n.nis[e.node].acceptCredit(e.vc, int(e.n))
		default:
			n.routers[e.node].ReleaseExpress(e.port, e.vc)
		}
	}

	event := n.cfg.EventMode
	evs := n.flits.take(now)
	for i := range evs {
		e := &evs[i]
		r := &n.routers[e.node]
		if event {
			if r.Arrive(e.port, e.vc, e.fl, e.worm, now) {
				// An express-absorbed arrival never occupies a buffer and
				// the router needs no Tick for it: skip the occupancy and
				// active-set bookkeeping entirely.
				continue
			}
			if e.worm {
				n.unpackWorm(e, now)
			}
		} else {
			r.EnqueueFlit(e.port, e.vc, e.fl, now)
		}
		n.actRouters.add(int(e.node))
	}

	n.actNIs.forEach(func(id int32) bool {
		x := &n.nis[id]
		x.tick(now)
		if x.pending() > 0 {
			return true
		}
		if at, ok := x.nextWake(); ok {
			n.wakes.push(wake{at: at, node: id})
		}
		return false
	})

	n.actRouters.forEach(func(id int32) bool {
		return n.routers[id].Tick(now) > 0
	})
}

// unpackWorm turns the rest of a worm event whose head the router just
// buffered (router.Arrive refused it) back into per-flit arrivals: the
// trailing flits land at link rate — exactly the cadence their per-flit
// events would have had — on the unchanged cycle-accurate path.
func (n *Network) unpackWorm(e *flitEvent, now int64) {
	msg := e.fl.Msg
	if e.port != topology.PortLocal {
		for s := 1; s < msg.Length; s++ {
			n.flits.schedule(now+int64(s), flitEvent{
				node: e.node, port: e.port, vc: e.vc,
				fl: flow.FlitAt(msg, s),
			})
		}
		return
	}
	// A worm refused at its own source router goes back to the NI as a
	// partially-serialized stream rather than as pre-scheduled trailing
	// events. The NI frees an injection VC only at the tail, so the next
	// message cannot overtake these flits on the same VC — which it could
	// if they sat in the wheel while per-flit credits trickled back. The
	// cadence is unchanged: the NI's next tick (later this same cycle)
	// sends seq 1 for now+1. A single-flit worm is its own head; there is
	// nothing left to serialize.
	if msg.Length > 1 {
		x := &n.nis[e.node]
		x.streams[e.vc] = stream{msg: msg, seq: 1}
		x.credits[e.vc] += msg.Length - 1
		n.actNIs.add(int(e.node))
	}
}

// idle reports whether nothing can happen until an NI wake fires: no
// events in flight on either wheel and both active sets empty. Between
// steps the sets hold exactly the components with work — every member was
// ticked this step and dropped if it drained — so an empty router set
// means no buffered flits and an empty NI set no queued or streaming
// messages.
func (n *Network) idle() bool {
	return n.flits.count == 0 && n.credits.count == 0 && n.actRouters.empty() && n.actNIs.empty()
}

// nextWakeAt returns the earliest parked NI wake, or -1 when every
// traffic process is exhausted.
func (n *Network) nextWakeAt() int64 {
	if n.wakes.len() == 0 {
		return -1
	}
	return n.wakes.top().at
}
