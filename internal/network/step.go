package network

import (
	"lapses/internal/flow"
	"lapses/internal/topology"
)

// stepCycle executes cycle now up to the barrier: due NI wakes, credits,
// flits, then the active NIs and the active routers, each in ascending
// node order.
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
	evs := n.flits.take(now)
	if n.cfg.EventMode {
		for i := range evs {
			e := &evs[i]
			if e.worm {
				// A worm event is an entire message crossing the wire
				// behind its head flit. A router that cannot absorb it in
				// O(1) unpacks it instead: the head latches now and the
				// trailing flits land at link rate — exactly the cadence
				// their per-flit events would have had — on the unchanged
				// cycle-accurate path.
				if n.routers[e.node].EventWorm(e.port, e.vc, e.fl, now) {
					continue
				}
				msg := e.fl.Msg
				if e.port == topology.PortLocal {
					// A worm refused at its own source router goes back to
					// the NI as a partially-serialized stream rather than as
					// pre-scheduled trailing events. The NI frees an
					// injection VC only at the tail, so the next message
					// cannot overtake these flits on the same VC — which it
					// could if they sat in the wheel while per-flit credits
					// trickled back. The cadence is unchanged: the NI's next
					// tick (later this same cycle) sends seq 1 for now+1.
					// A single-flit worm is its own head; there is nothing
					// left to serialize.
					if msg.Length > 1 {
						x := &n.nis[e.node]
						x.streams[e.vc] = stream{msg: msg, seq: 1}
						x.credits[e.vc] += msg.Length - 1
						n.totalQueued++
						n.actNIs.add(int(e.node))
					}
				} else {
					for s := 1; s < msg.Length; s++ {
						n.flits.schedule(now+int64(s), flitEvent{
							node: e.node, port: e.port, vc: e.vc,
							fl: flow.FlitAt(msg, s),
						})
					}
				}
				n.routers[e.node].EnqueueFlit(e.port, e.vc, e.fl, now)
				n.totalOcc++
				n.lastOcc[e.node]++
				n.actRouters.add(int(e.node))
				continue
			}
			// An express-absorbed flit never occupies a buffer and the
			// router needs no Tick for it: skip the occupancy and
			// active-set bookkeeping entirely.
			if n.routers[e.node].EventFlit(e.port, e.vc, e.fl, now) {
				continue
			}
			n.totalOcc++
			n.lastOcc[e.node]++
			n.actRouters.add(int(e.node))
		}
	} else {
		for i := range evs {
			e := &evs[i]
			n.routers[e.node].EnqueueFlit(e.port, e.vc, e.fl, now)
			n.totalOcc++
			n.lastOcc[e.node]++
			n.actRouters.add(int(e.node))
		}
	}

	n.actNIs.forEach(func(id int32) bool {
		x := &n.nis[id]
		before := x.pending()
		x.tick(now)
		after := x.pending()
		n.totalQueued += after - before
		if after > 0 {
			return true
		}
		if at, ok := x.nextWake(); ok {
			n.wakes.push(wake{at: at, node: id})
		}
		return false
	})

	n.actRouters.forEach(func(id int32) bool {
		occ := n.routers[id].Tick(now)
		n.totalOcc += occ - int(n.lastOcc[id])
		n.lastOcc[id] = int32(occ)
		return occ > 0
	})
}

// finishCycle is the cycle barrier: everything order-sensitive that the
// step body deferred — message ID assignment, arrival and loss replay to
// the observers, pooling — runs here, after every NI and router has
// finished cycle now.
func (n *Network) finishCycle(now int64) {
	// Message IDs in NI-visit (ascending node) order. IDs are only read at
	// delivery (cycles later), so assigning them here instead of at
	// generation is unobservable.
	for _, msg := range n.created {
		msg.ID = n.nextMsg
		n.nextMsg++
	}
	n.created = n.created[:0]
	// Reliability: resolve this cycle's pending entries now that their
	// messages have IDs, and hand pure acks negative IDs so they never
	// consume the measured ID space.
	for _, pe := range n.newPending {
		pe.id = pe.msg.ID
		pe.msg = nil
	}
	n.newPending = n.newPending[:0]
	for _, msg := range n.createdCtrl {
		n.nextCtrl--
		msg.ID = n.nextCtrl
	}
	n.createdCtrl = n.createdCtrl[:0]

	// Arrival replay: deliveries were appended in ascending router order
	// (the active-set iteration).
	if n.sched != nil && len(n.arrived) > 0 {
		// Bucket first deliveries for the recovery-time metric. arrived
		// only ever holds first deliveries: duplicates were consumed in
		// relReceive before reaching it.
		idx := int(now >> windowShift)
		for len(n.windows) <= idx {
			n.windows = append(n.windows, 0)
		}
		n.windows[idx] += int64(len(n.arrived))
	}
	for _, msg := range n.arrived {
		n.delivered++
		if n.onArrive != nil {
			n.onArrive(msg, now)
		}
		if n.recycle {
			n.msgFree = append(n.msgFree, msg)
		}
	}
	n.arrived = n.arrived[:0]
	if n.recycle {
		n.msgFree = append(n.msgFree, n.relDone...)
	}
	n.relDone = n.relDone[:0]

	// Permanent losses replay to the observer after the cycle's arrivals:
	// bind-point drops of messages to dead destinations (no reliability
	// layer), then retry-exhausted abandonments (with it).
	for _, msg := range n.dropped {
		n.droppedMsgs++
		if n.onLost != nil {
			n.onLost(msg.ID)
		}
	}
	n.dropped = n.dropped[:0]
	for _, id := range n.lostIDs {
		if n.onLost != nil {
			n.onLost(id)
		}
	}
	n.lostIDs = n.lostIDs[:0]
}

// idle reports whether nothing can happen until an NI wake fires: no
// buffered flits, no queued or streaming messages, and no events in
// flight on either wheel.
func (n *Network) idle() bool {
	return n.totalOcc == 0 && n.totalQueued == 0 && n.flits.count == 0 && n.credits.count == 0
}

// nextWakeAt returns the earliest parked NI wake, or -1 when every
// traffic process is exhausted.
func (n *Network) nextWakeAt() int64 {
	if n.wakes.len() == 0 {
		return -1
	}
	return n.wakes.top().at
}
