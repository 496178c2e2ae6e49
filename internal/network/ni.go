package network

import (
	"lapses/internal/flow"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// stream tracks one message being serialized into the router through one
// injection VC.
type stream struct {
	msg *flow.Message
	seq int
}

// ni is a node's network interface: it generates messages per the traffic
// pattern, queues them (unbounded source queue: the open-loop model whose
// queueing delay the paper's latency numbers include), serializes them
// into the router's local input port across the injection VCs, and
// receives ejected flits.
//
// In look-ahead mode the NI performs the source table lookup when it
// builds the header flit, as the SGI SPIDER's interface does, so the
// source router can start directly at its SA stage.
type ni struct {
	net   *Network
	node  topology.NodeID
	inj   traffic.Source
	trace *traffic.TraceCursor

	queue   []*flow.Message
	qHead   int
	streams []stream
	credits []int
	rr      int

	// rel is the end-to-end reliability state, nil when the layer is off
	// (the healthy path pays one pointer test per tick and delivery).
	rel *niRel
}

// resetNIs returns every node's NI to its constructed state over the
// arena's slabs: the NIs themselves, their injection streams and credit
// counters, their trace cursors, the reliability layer's per-peer arrays
// and (inside traffic.Sources.Reset) the generation processes with their
// random streams. Source queues and the reliability lists are emptied with
// their capacity kept.
func (n *Network) resetNIs() {
	v, nodes := n.cfg.Router.NumVCs, len(n.nis)
	clear(n.streams)
	for i := range n.niCredits {
		n.niCredits[i] = n.cfg.Router.BufDepth
	}
	clear(n.cursors)
	clear(n.relSeq)
	clear(n.relRecv)
	n.srcs.Reset(n.cfg.MsgRate, n.cfg.Burst, n.cfg.Seed)
	for id := range n.nis {
		x := &n.nis[id]
		clear(x.queue)
		*x = ni{
			net:     n,
			node:    topology.NodeID(id),
			inj:     n.srcs.At(id),
			queue:   x.queue[:0],
			streams: n.streams[id*v : (id+1)*v],
			credits: n.niCredits[id*v : (id+1)*v],
		}
		if n.cfg.Trace != nil {
			n.cursors[id] = *n.cfg.Trace.Cursor(x.node)
			x.trace = &n.cursors[id]
		}
		if n.rel != nil {
			x.rel = &n.rels[id]
			clear(x.rel.pend)
			*x.rel = niRel{
				nextSeq:  n.relSeq[id*nodes : (id+1)*nodes],
				pend:     x.rel.pend[:0],
				recv:     n.relRecv[id*nodes : (id+1)*nodes],
				ackPeers: x.rel.ackPeers[:0],
			}
		}
	}
}

// pending returns messages queued or mid-injection. A zero return means
// the NI is quiescent: its tick would do nothing until the traffic
// process next fires (nextWake), which is what lets the network park it
// off the active set.
func (x *ni) pending() int {
	n := len(x.queue) - x.qHead
	for _, s := range x.streams {
		if s.msg != nil {
			n++
		}
	}
	return n
}

// nextWake returns the cycle the NI next has work without external input:
// its traffic process's next firing, joined (when the reliability layer is
// on) with its earliest retransmission deadline or pending pure ack. False
// means the NI never needs to wake again.
func (x *ni) nextWake() (int64, bool) {
	var at int64
	var ok bool
	if x.trace != nil {
		at, ok = x.trace.NextAt()
	} else {
		at, ok = x.inj.NextAt()
	}
	if x.rel != nil {
		if rat, rok := x.relNextWake(); rok && (!ok || rat < at) {
			at, ok = rat, true
		}
	}
	return at, ok
}

// inject seeds a message directly into its source node's queue, bypassing
// the traffic process. It keeps the active set coherent, which appending
// to the queue directly would not; tests that hand-craft messages must use
// it.
func (n *Network) inject(msg *flow.Message) {
	if n.plan.NodeDead(msg.Src) || n.plan.NodeDead(msg.Dst) {
		panic("network: inject touching a dead router")
	}
	x := &n.nis[msg.Src]
	x.queue = append(x.queue, msg)
	n.actNIs.add(int(msg.Src))
}

// msgSlab is how many messages the pool allocates at a time when it runs
// dry: a run's few dozen live messages cost a few allocations, not one each.
const msgSlab = 32

// newMessage takes a message from the delivery pool, refilling the pool
// with a fresh slab first when it is empty.
func (n *Network) newMessage() *flow.Message {
	if len(n.msgFree) == 0 {
		slab := make([]flow.Message, msgSlab)
		for i := range slab {
			n.msgFree = append(n.msgFree, &slab[i])
		}
	}
	k := len(n.msgFree) - 1
	msg := n.msgFree[k]
	n.msgFree = n.msgFree[:k]
	*msg = flow.Message{}
	return msg
}

// pool returns a message nothing in the network references any more to
// the delivery pool (inside Run; see Network.recycle).
func (n *Network) pool(msg *flow.Message) {
	if n.recycle {
		n.msgFree = append(n.msgFree, msg)
	}
}

// lost reports a permanently lost message to the loss observer.
func (n *Network) lost(id flow.MessageID) {
	if n.onLost != nil {
		n.onLost(id)
	}
}

// generated stamps a message the traffic process just produced with the
// next ID, registers it with the reliability layer and queues it.
func (x *ni) generated(msg *flow.Message, now int64) {
	msg.CreateTime = now
	msg.ID = x.net.nextMsg
	x.net.nextMsg++
	if x.rel != nil {
		x.relTrack(msg, now)
	}
	x.queue = append(x.queue, msg)
}

// tick generates due messages, binds queued messages to free injection
// VCs, and injects at most one flit (the injection channel is one flit
// wide, like every physical channel).
func (x *ni) tick(now int64) {
	// A node that is dead in the current schedule epoch injects nothing,
	// but its traffic process still consumes its due firings: a healed
	// node resumes at the process's natural pace instead of releasing a
	// backlog of every message "generated" while it was down.
	if x.net.sched != nil && x.net.plan.NodeDead(x.node) {
		if x.trace != nil {
			x.trace.Due(now)
		} else {
			x.inj.Due(now)
		}
		return
	}
	// Reliability timers run before generation so a retransmitted copy or
	// pure ack enqueued this cycle competes for this cycle's injection
	// slot like any queued message.
	if x.rel != nil {
		x.relMaintain(now)
	}
	if x.trace != nil {
		for _, tm := range x.trace.Due(now) {
			msg := x.net.newMessage()
			msg.Src = tm.Src
			msg.Dst = tm.Dst
			msg.Length = tm.Length
			x.generated(msg, now)
		}
	} else {
		for i := x.inj.Due(now); i > 0; i-- {
			dst, ok := x.net.cfg.Pattern.Dest(x.node, x.inj.RNG())
			if !ok {
				continue
			}
			msg := x.net.newMessage()
			msg.Src = x.node
			msg.Dst = dst
			msg.Length = x.net.cfg.MsgLen
			// QoS class draw, gated so runs without QoS consume exactly
			// the same random stream as before.
			if hi := x.net.cfg.QoSHiFrac; hi > 0 && x.inj.RNG().Float64() < hi {
				msg.Class = 1
			}
			x.generated(msg, now)
		}
	}

	// Bind the head of the queue to free injection VCs. Under a schedule,
	// a queued message whose destination is dead right now is dropped at
	// the bind point instead of being routed into a table with no path:
	// a permanent loss without the reliability layer, a no-op with it (the
	// retransmission timer retries, and a later epoch may have healed the
	// destination).
	for v := range x.streams {
		if x.streams[v].msg != nil {
			continue
		}
		var msg *flow.Message
		for x.qHead != len(x.queue) {
			m := x.queue[x.qHead]
			x.queue[x.qHead] = nil
			x.qHead++
			if x.qHead == len(x.queue) {
				x.queue = x.queue[:0]
				x.qHead = 0
			}
			if x.net.sched != nil && x.net.plan.NodeDead(m.Dst) {
				if x.rel == nil {
					x.net.droppedMsgs++
					x.net.lost(m.ID)
				}
				continue
			}
			msg = m
			break
		}
		if msg == nil {
			break
		}
		if x.rel != nil {
			x.relFillAcks(msg)
		}
		x.streams[v] = stream{msg: msg}
	}

	// Event-mode whole-message emission: when exactly one message is being
	// injected, it is still at its head, and the NI holds credits for its
	// entire length, it leaves as a single worm event instead of one flit
	// per cycle. The cadence on the injection wire is identical — flits at
	// link rate starting next cycle — it is just not replayed event by
	// event unless the source router has to unpack the worm. A second
	// bound stream (or a stream already mid-message) falls back to
	// per-flit injection, preserving the cycle path's round-robin
	// interleave.
	if x.net.cfg.EventMode {
		if v := x.soleFreshStream(); v >= 0 && x.credits[v] >= x.streams[v].msg.Length && x.wormWindowClear(now, x.streams[v].msg.Length) {
			s := &x.streams[v]
			msg := s.msg
			msg.InjectTime = now
			if x.net.cfg.Router.LookAhead {
				msg.Route = x.net.cfg.Routes[x.net.epoch].Lookup(x.node, msg.Dst, 0)
			}
			fl := flow.FlitAt(msg, 0)
			x.net.flits.schedule(now+1, flitEvent{node: x.node, port: topology.PortLocal, vc: flow.VCID(v), fl: fl, worm: true})
			x.credits[v] -= msg.Length
			*s = stream{}
			x.rr = v + 1
			if x.rr == len(x.streams) {
				x.rr = 0
			}
			return
		}
	}

	// Inject one flit, round-robin over active streams with credit.
	nv := len(x.streams)
	for off := 0; off < nv; off++ {
		v := x.rr + off
		if v >= nv {
			v -= nv
		}
		s := &x.streams[v]
		if s.msg == nil || x.credits[v] == 0 {
			continue
		}
		fl := flow.FlitAt(s.msg, s.seq)
		if fl.Type.IsHead() {
			s.msg.InjectTime = now
			if x.net.cfg.Router.LookAhead {
				s.msg.Route = x.net.cfg.Routes[x.net.epoch].Lookup(x.node, s.msg.Dst, 0)
			}
		}
		// One-cycle injection wire: the flit is latched into the
		// router's local input buffer next cycle.
		x.net.flits.schedule(now+1, flitEvent{node: x.node, port: topology.PortLocal, vc: flow.VCID(v), fl: fl})
		x.credits[v]--
		s.seq++
		if fl.Type.IsTail() {
			*s = stream{}
		}
		x.rr = v + 1
		if x.rr == nv {
			x.rr = 0
		}
		return
	}
}

// wormWindowClear reports whether the traffic process stays quiet for the
// length cycles a worm's flits would occupy the injection wire. A message
// generated inside that window would, in cycle mode, round-robin its flits
// with the worm's on the one-flit-wide wire — an interleave a worm cannot
// replay — so such messages keep the per-flit path and its exact cadence.
func (x *ni) wormWindowClear(now int64, length int) bool {
	at, ok := x.nextWake()
	return !ok || at >= now+int64(length)
}

// soleFreshStream returns the VC of the only active injection stream if
// there is exactly one and it has not started serializing (seq 0), else -1.
func (x *ni) soleFreshStream() int {
	v := -1
	for i := range x.streams {
		if x.streams[i].msg == nil {
			continue
		}
		if v >= 0 || x.streams[i].seq != 0 {
			return -1
		}
		v = i
	}
	return v
}

// acceptCredit returns n injection-buffer slots for VC v (n > 1 when a
// worm transit frees its whole admission window at once).
func (x *ni) acceptCredit(v flow.VCID, n int) {
	x.credits[v] += n
}

// deliver consumes an ejected flit; the tail completes the message: it is
// counted, shown to the arrival observer and pooled right here, so
// arrivals reach the observer in execution order — what the goldens and
// the reliability layer are pinned against. at is
// the cycle the flit reaches the NI, which in event mode may lie ahead of
// the executing cycle (an express ejection computes it); the observer and
// the delivery windows see the executing cycle, net.now. The tail is the
// last live reference to the message inside the network — earlier flits
// preceded it through every buffer, and popped fifo slots are never read
// again before being overwritten — so it can be pooled at once.
func (x *ni) deliver(fl flow.Flit, at int64) {
	if fl.Msg.Dst != x.node {
		panic("network: flit delivered to wrong node")
	}
	if !fl.Type.IsTail() {
		return
	}
	n, msg := x.net, fl.Msg
	if x.rel != nil && !x.relReceive(msg, at) {
		// Consumed by the reliability layer: a pure ack, or a duplicate of
		// an already-delivered sequence number. Never reaches the arrival
		// observer.
		n.pool(msg)
		return
	}
	msg.ArriveTime = at
	n.delivered++
	if n.sched != nil {
		// Bucket first deliveries for the recovery-time metric.
		idx := int(n.now >> windowShift)
		for len(n.windows) <= idx {
			n.windows = append(n.windows, 0)
		}
		n.windows[idx]++
	}
	if n.onArrive != nil {
		n.onArrive(msg, n.now)
	}
	n.pool(msg)
}
