package network

import (
	"sync"

	"lapses/internal/flow"
	"lapses/internal/topology"
)

// Sharded stepping splits the mesh into contiguous row bands and advances
// all of them through one cycle with a two-phase protocol:
//
//   - Phase A (parallel): each shard pops its due NI wakes, drains its own
//     flit/credit wheel slots, ticks its active NIs and routers. All state
//     a shard touches in phase A is shard-private: its wheels, active
//     bitmaps, wake heap, occupancy counters, message pool, and the
//     routers/NIs of its band. Effects that cross a shard boundary are
//     always *future* events (a flit or credit traversing a link lands no
//     earlier than now+1+LinkDelay >= now+2), so instead of writing into
//     another shard's wheel a sender appends the event to a per-(source,
//     destination) mailbox.
//   - Phase B (barrier, serial): message IDs are assigned to this cycle's
//     generated messages in ascending shard (= node) order, arrivals are
//     replayed to the observer in ascending shard order, and mailboxes are
//     drained into the destination shards' wheels in ascending source
//     order.
//
// Why shards=N is bit-identical to shards=1: within one cycle no shard
// can observe another shard's work. Every cross-shard effect is an event
// due at now+2 or later, delivered via the mailbox drain at the barrier —
// before its due cycle. The only order the parallel phase changes is the
// order of events *within* one wheel slot (a shard's own events land
// before mailed ones), and slot-internal order is unobservable: a
// physical channel carries at most one flit per cycle, so no two flit
// events in a slot ever target the same (node, port), and credit events
// are pure counter increments. Everything order-sensitive — message ID
// assignment, statistics recording — happens in phase B in ascending node
// order, exactly the order the serial kernel produced. The golden tests
// pin this equivalence at shards ∈ {1, 2, 4}.
//
// Whether phase A runs on worker goroutines or inline on one goroutine is
// purely an execution strategy: Run starts one worker per extra shard for
// the duration of the measurement loop (startWorkers), while direct Step
// calls outside Run execute the shards sequentially with identical
// results.

// timedFlit and timedCredit are mailbox entries: a wheel event plus its
// due cycle, carried across the shard boundary at the barrier.
type timedFlit struct {
	at int64
	e  flitEvent
}

type timedCredit struct {
	at int64
	e  creditEvent
}

// shard owns one contiguous band of nodes [lo, hi) and every piece of
// per-cycle mutable state those nodes touch during phase A.
type shard struct {
	idx    int
	lo, hi int

	flits   *wheel[flitEvent]
	credits *wheel[creditEvent]

	// Active bitmaps and the wake heap are indexed by (node - lo) /
	// hold global node ids respectively, mirroring the pre-shard kernel.
	actRouters activeSet
	actNIs     activeSet
	wakes      wakeHeap

	// totalOcc/totalQueued are this band's slices of the network-wide
	// incremental counters; accessors sum them.
	totalOcc    int
	totalQueued int

	// created accumulates messages generated this cycle, in NI-visit
	// (ascending node) order; phase B assigns their IDs. arrived
	// accumulates tail-delivered messages in delivery order; phase B
	// replays them to the arrival observer. Both are reset each cycle and
	// reuse their backing arrays.
	created []*flow.Message
	arrived []*flow.Message

	// msgFree pools delivered messages for reuse by this band's NIs.
	msgFree []*flow.Message

	// Reliability-layer accumulators (reliability.go), all written only by
	// this shard's NIs during phase A and drained or summed at the
	// barrier. newPending holds this cycle's tracked sends awaiting their
	// message IDs; createdCtrl this cycle's pure acks awaiting (negative)
	// IDs; relDone delivered copies the layer consumed (duplicates, pure
	// acks) to pool; lostIDs retry-exhausted message IDs to replay to the
	// loss observer. dropped holds messages discarded at the bind point
	// because their destination is dead and no reliability layer will
	// retry them.
	newPending  []*pendEntry
	createdCtrl []*flow.Message
	relDone     []*flow.Message
	lostIDs     []flow.MessageID
	dropped     []*flow.Message
	retrans     int64
	dups        int64
	abandoned   int64

	// outFlits/outCredits are the outbound mailboxes, indexed by
	// destination shard. Only this shard appends (during its phase A);
	// only the barrier drains. The slot for the own index stays unused.
	outFlits   [][]timedFlit
	outCredits [][]timedCredit
}

// shardBounds partitions the n nodes of m into at most want contiguous
// bands aligned to slabs of the slowest-varying dimension (rows of a 2-D
// mesh), so band boundaries coincide with topology rows and cross-shard
// links are the band-edge row links only. The clamp to the slab count
// guarantees every shard owns at least one full slab.
func shardBounds(m *topology.Mesh, want int) []int {
	slabs := m.Radix(m.NumDims() - 1)
	slabSize := m.N() / slabs
	if want < 1 {
		want = 1
	}
	if want > slabs {
		want = slabs
	}
	bounds := make([]int, want+1)
	for b := 0; b <= want; b++ {
		bounds[b] = slabSize * (b * slabs / want)
	}
	return bounds
}

// stepShard advances one shard through phase A of cycle now. It mirrors
// the serial kernel's order exactly — wakes, credits, flits, NIs, routers
// — restricted to the shard's band.
func (n *Network) stepShard(sh *shard, now int64) {
	for sh.wakes.len() > 0 && sh.wakes.top().at <= now {
		sh.actNIs.add(int(sh.wakes.pop().node) - sh.lo)
	}

	for _, e := range sh.credits.take(now) {
		switch e.kind {
		case creditToRouter:
			n.routers[e.node].AcceptCredits(e.port, e.vc, int(e.n))
			if n.notify {
				// Deliver the piggybacked congestion notification with
				// the credit: the per-port register updates in credit
				// order, which the barrier protocol preserves.
				n.routers[e.node].NoteCongestion(e.port, e.cong)
			}
		case creditToNI:
			n.nis[e.node].acceptCredit(e.vc, int(e.n))
		default:
			n.routers[e.node].ReleaseExpress(e.port, e.vc)
		}
	}
	evs := sh.flits.take(now)
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
						sh.totalQueued++
						sh.actNIs.add(int(e.node) - sh.lo)
					}
				} else {
					for s := 1; s < msg.Length; s++ {
						sh.flits.schedule(now+int64(s), flitEvent{
							node: e.node, port: e.port, vc: e.vc,
							fl: flow.FlitAt(msg, s),
						})
					}
				}
				n.routers[e.node].EnqueueFlit(e.port, e.vc, e.fl, now)
				sh.totalOcc++
				n.lastOcc[e.node]++
				sh.actRouters.add(int(e.node) - sh.lo)
				continue
			}
			// An express-absorbed flit never occupies a buffer and the
			// router needs no Tick for it: skip the occupancy and
			// active-set bookkeeping entirely.
			if n.routers[e.node].EventFlit(e.port, e.vc, e.fl, now) {
				continue
			}
			sh.totalOcc++
			n.lastOcc[e.node]++
			sh.actRouters.add(int(e.node) - sh.lo)
		}
	} else {
		for i := range evs {
			e := &evs[i]
			n.routers[e.node].EnqueueFlit(e.port, e.vc, e.fl, now)
			sh.totalOcc++
			n.lastOcc[e.node]++
			sh.actRouters.add(int(e.node) - sh.lo)
		}
	}

	sh.actNIs.forEach(func(local int32) bool {
		x := &n.nis[sh.lo+int(local)]
		before := x.pending()
		x.tick(now)
		after := x.pending()
		sh.totalQueued += after - before
		if after > 0 {
			return true
		}
		if at, ok := x.nextWake(); ok {
			sh.wakes.push(wake{at: at, node: int32(sh.lo) + local})
		}
		return false
	})

	sh.actRouters.forEach(func(local int32) bool {
		id := sh.lo + int(local)
		occ := n.routers[id].Tick(now)
		sh.totalOcc += occ - int(n.lastOcc[id])
		n.lastOcc[id] = int32(occ)
		return occ > 0
	})
}

// finishCycle is phase B: the serial barrier work after every shard has
// finished phase A of cycle now. It runs on the stepping goroutine, so
// the worker barrier's happens-before edge covers everything the shards
// wrote.
func (n *Network) finishCycle(now int64) {
	// Message IDs in ascending shard order = ascending node order, the
	// order the serial kernel's NI loop assigned them in. IDs are only
	// read at delivery (cycles later), so assigning them here instead of
	// at generation is unobservable.
	for _, sh := range n.shards {
		for _, msg := range sh.created {
			msg.ID = n.nextMsg
			n.nextMsg++
		}
		sh.created = sh.created[:0]
		// Reliability: resolve this cycle's pending entries now that their
		// messages have IDs, and hand pure acks negative IDs so they never
		// consume the measured ID space.
		for _, pe := range sh.newPending {
			pe.id = pe.msg.ID
			pe.msg = nil
		}
		sh.newPending = sh.newPending[:0]
		for _, msg := range sh.createdCtrl {
			n.nextCtrl--
			msg.ID = n.nextCtrl
		}
		sh.createdCtrl = sh.createdCtrl[:0]
	}
	// Arrival replay, same order. Within a shard, deliveries were
	// appended in ascending router order (the active-set iteration), so
	// the concatenation is the serial kernel's delivery order.
	for _, sh := range n.shards {
		if n.sched != nil && len(sh.arrived) > 0 {
			// Bucket first deliveries for the recovery-time metric. arrived
			// only ever holds first deliveries: duplicates were consumed in
			// relReceive before reaching it.
			idx := int(now >> windowShift)
			for len(n.windows) <= idx {
				n.windows = append(n.windows, 0)
			}
			n.windows[idx] += int64(len(sh.arrived))
		}
		for _, msg := range sh.arrived {
			n.delivered++
			if n.onArrive != nil {
				n.onArrive(msg, now)
			}
			if n.recycle {
				sh.msgFree = append(sh.msgFree, msg)
			}
		}
		sh.arrived = sh.arrived[:0]
		if len(sh.relDone) > 0 {
			if n.recycle {
				sh.msgFree = append(sh.msgFree, sh.relDone...)
			}
			sh.relDone = sh.relDone[:0]
		}
	}
	// Permanent losses replay to the observer after every shard's
	// arrivals, in ascending shard order: bind-point drops of messages to
	// dead destinations (no reliability layer), then retry-exhausted
	// abandonments (with it). A separate pass — not the arrival loop —
	// because interleaving per shard would order a shard-0 loss before a
	// shard-1 arrival that the serial kernel reports first.
	for _, sh := range n.shards {
		for _, msg := range sh.dropped {
			n.droppedMsgs++
			if n.onLost != nil {
				n.onLost(msg.ID)
			}
		}
		sh.dropped = sh.dropped[:0]
		for _, id := range sh.lostIDs {
			if n.onLost != nil {
				n.onLost(id)
			}
		}
		sh.lostIDs = sh.lostIDs[:0]
	}
	if len(n.shards) > 1 {
		for di, d := range n.shards {
			for _, s := range n.shards {
				for _, tf := range s.outFlits[di] {
					d.flits.schedule(tf.at, tf.e)
				}
				s.outFlits[di] = s.outFlits[di][:0]
				for _, tc := range s.outCredits[di] {
					d.credits.schedule(tc.at, tc.e)
				}
				s.outCredits[di] = s.outCredits[di][:0]
			}
		}
	}
}

// parRun is the persistent worker pool of one measurement loop: one
// goroutine per shard beyond the first, each parked on its start channel
// between cycles. The stepping goroutine executes shard 0 itself.
type parRun struct {
	start []chan int64
	wg    sync.WaitGroup
}

// startWorkers spawns the phase-A workers and returns a stop function.
// With one shard it is a no-op. Run brackets its measurement loop with
// this; everywhere else Step executes the shards inline, which is
// bit-identical (see the package comment above).
func (n *Network) startWorkers() (stop func()) {
	if len(n.shards) < 2 {
		return func() {}
	}
	p := &parRun{start: make([]chan int64, len(n.shards)-1)}
	for i := 1; i < len(n.shards); i++ {
		ch := make(chan int64, 1)
		p.start[i-1] = ch
		go func(sh *shard) {
			for now := range ch {
				n.stepShard(sh, now)
				p.wg.Done()
			}
		}(n.shards[i])
	}
	n.par = p
	return func() {
		for _, ch := range p.start {
			close(ch)
		}
		n.par = nil
	}
}

// idle reports whether nothing can happen until an NI wake fires: no
// buffered flits, no queued or streaming messages, and no events in
// flight on any wheel (mailboxes are always empty between cycles).
func (n *Network) idle() bool {
	for _, sh := range n.shards {
		if sh.totalOcc != 0 || sh.totalQueued != 0 || sh.flits.count != 0 || sh.credits.count != 0 {
			return false
		}
	}
	return true
}

// nextWakeAt returns the earliest parked NI wake across all shards, or
// -1 when every traffic process is exhausted.
func (n *Network) nextWakeAt() int64 {
	at := int64(-1)
	for _, sh := range n.shards {
		if sh.wakes.len() == 0 {
			continue
		}
		if t := sh.wakes.top().at; at < 0 || t < at {
			at = t
		}
	}
	return at
}
