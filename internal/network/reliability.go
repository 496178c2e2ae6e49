package network

import (
	"lapses/internal/flow"
	"lapses/internal/topology"
)

// End-to-end reliability at the network interfaces. Wormhole fabrics drop
// nothing in steady state, so the layer exists for one reason: a fault
// transition destroys every flit committed to dying equipment, and
// link-level mechanisms cannot resurrect a message whose flits are gone.
// The NIs run a classic ARQ protocol over the fabric instead:
//
//   - The source NI numbers every message within its (src, dst) stream
//     (flow.Message.RelSeq) and keeps a pending entry — everything needed
//     to rebuild the message — until the destination acknowledges it.
//   - Acknowledgments piggyback on every message traveling the reverse
//     direction (AckFloor + AckBits, a cumulative floor plus a 64-wide
//     selective window). A receiver with no reverse traffic sends a pure
//     one-flit ack (Ctrl) after AckDelay cycles, batching bursts.
//   - An unacknowledged entry retransmits after RTO cycles, doubling the
//     timeout each attempt (capped at RTO<<6), until MaxAttempts is
//     exhausted; then the message is abandoned and reported lost.
//   - The destination NI delivers each RelSeq once: copies arriving after
//     a first delivery are counted (DupSuppressed) and dropped before the
//     arrival observer fires. Delivered + abandoned is therefore
//     exactly-once delivery of everything the sources generated.
//
// Everything runs inside the NI tick/deliver paths: per-NI state is only
// touched by its own NI, and cross-NI effects travel as ordinary messages.

// The reliability layer's parameters, which every product run uses (core
// turns the layer on or off and sets none of them): the base
// retransmission timeout in cycles, the send attempts per message, and
// the cycles a receiver holds an acknowledgment for reverse traffic.
const (
	DefaultRTO         = 2048
	DefaultMaxAttempts = 12
	DefaultAckDelay    = 64
)

// Reliability configures the end-to-end NI reliability layer. The zero
// value of each field selects its default; the kernel's tests set others.
type Reliability struct {
	// RTO is the base retransmission timeout in cycles (DefaultRTO).
	// Attempt k waits RTO<<min(k-1, 6). It should comfortably exceed the
	// round-trip time at the target load, or healthy traffic retransmits.
	RTO int64
	// MaxAttempts bounds total send attempts per message, the first
	// included (DefaultMaxAttempts). A message unacknowledged after the
	// last attempt's timeout is abandoned and counted lost.
	MaxAttempts int
	// AckDelay is how long a receiver holds a pending acknowledgment
	// waiting for reverse traffic to piggyback on before it spends a
	// one-flit pure ack (DefaultAckDelay cycles).
	AckDelay int64
}

// withDefaults returns the configuration with zero fields resolved.
func (r Reliability) withDefaults() Reliability {
	if r.RTO == 0 {
		r.RTO = DefaultRTO
	}
	if r.MaxAttempts == 0 {
		r.MaxAttempts = DefaultMaxAttempts
	}
	if r.AckDelay == 0 {
		r.AckDelay = DefaultAckDelay
	}
	return r
}

// pendEntry is one unacknowledged message held at its source NI: enough
// to rebuild the message for retransmission without retaining the (pooled)
// original.
type pendEntry struct {
	id         flow.MessageID
	dst        topology.NodeID
	seq        int64
	length     int
	class      uint8
	createTime int64
	attempts   int
	deadline   int64
}

// recvState is a destination NI's view of one incoming (src, dst) stream.
type recvState struct {
	// floor: every RelSeq <= floor has been delivered. seen holds
	// delivered seqs above the floor (out-of-order arrivals), drained into
	// the floor as the gaps fill; allocated lazily.
	floor int64
	seen  map[int64]struct{}
	// ackPending marks unacknowledged deliveries; the ack leaves
	// piggybacked on the next reverse-direction message, or as a pure ack
	// at ackAt. inAckList dedups membership in niRel.ackPeers.
	ackPending bool
	ackAt      int64
	inAckList  bool
}

// niRel is one NI's reliability state (nil on the NI when the layer is
// off, so the healthy fast path pays a single pointer test).
type niRel struct {
	nextSeq  []int64      // per destination: last assigned RelSeq
	pend     []*pendEntry // unacknowledged sends, oldest first
	recv     []recvState  // per source: incoming stream state
	ackPeers []topology.NodeID
}

// acked reports whether seq is covered by an (AckFloor, AckBits) pair.
func acked(seq, floor int64, bits uint64) bool {
	if seq <= floor {
		return true
	}
	if d := seq - floor; d <= 64 {
		return bits&(1<<uint(d-1)) != 0
	}
	return false
}

// relMaintain runs the source-side timers of the reliability layer at the
// head of an NI tick: due retransmissions (or abandonment) and due pure
// acks. Both enqueue ordinary messages, so everything downstream — VC
// binding, injection, routing — is the unmodified path.
func (x *ni) relMaintain(now int64) {
	rel := x.net.rel
	kept := x.rel.pend[:0]
	for _, pe := range x.rel.pend {
		if pe.deadline > now {
			kept = append(kept, pe)
			continue
		}
		if pe.attempts >= rel.MaxAttempts {
			// Out of attempts: the message is lost end to end.
			x.net.abandoned++
			x.net.lost(pe.id)
			continue
		}
		msg := x.net.newMessage()
		msg.ID = pe.id
		msg.Src = x.node
		msg.Dst = pe.dst
		msg.Length = pe.length
		msg.Class = pe.class
		msg.CreateTime = pe.createTime
		msg.RelSeq = pe.seq
		x.queue = append(x.queue, msg)
		x.net.retrans++
		pe.attempts++
		shift := pe.attempts - 1
		if shift > 6 {
			shift = 6
		}
		pe.deadline = now + rel.RTO<<uint(shift)
		kept = append(kept, pe)
	}
	x.rel.pend = kept

	if len(x.rel.ackPeers) > 0 {
		peers := x.rel.ackPeers[:0]
		for _, src := range x.rel.ackPeers {
			st := &x.rel.recv[src]
			if st.ackPending && st.ackAt <= now {
				msg := x.net.newMessage()
				msg.Src = x.node
				msg.Dst = src
				msg.Length = 1
				msg.CreateTime = now
				msg.Ctrl = true
				x.net.nextCtrl--
				msg.ID = x.net.nextCtrl
				x.queue = append(x.queue, msg)
				st.ackPending = false
			}
			if st.ackPending {
				peers = append(peers, src)
			} else {
				st.inAckList = false
			}
		}
		x.rel.ackPeers = peers
	}
}

// relTrack registers a freshly generated message with the reliability
// layer: assigns its stream sequence number and creates the pending entry
// the retransmission timer watches.
func (x *ni) relTrack(msg *flow.Message, now int64) {
	x.rel.nextSeq[msg.Dst]++
	msg.RelSeq = x.rel.nextSeq[msg.Dst]
	pe := &pendEntry{
		id:         msg.ID,
		dst:        msg.Dst,
		seq:        msg.RelSeq,
		length:     msg.Length,
		class:      msg.Class,
		createTime: now,
		attempts:   1,
		deadline:   now + x.net.rel.RTO,
	}
	x.rel.pend = append(x.rel.pend, pe)
}

// relFillAcks stamps the outgoing message with this NI's view of the
// reverse stream from msg.Dst, satisfying any pending pure ack for free.
func (x *ni) relFillAcks(msg *flow.Message) {
	st := &x.rel.recv[msg.Dst]
	msg.AckFloor = st.floor
	var bits uint64
	for s := range st.seen {
		if d := s - st.floor; d >= 1 && d <= 64 {
			bits |= 1 << uint(d-1)
		}
	}
	msg.AckBits = bits
	st.ackPending = false
}

// relReceive runs the destination-side protocol on a delivered tail. It
// returns false when the message is consumed by the layer — a pure ack,
// or a duplicate of an already-delivered sequence number — and must not
// reach the application (the arrival observer); the caller pools it.
func (x *ni) relReceive(m *flow.Message, now int64) bool {
	// Piggybacked acks first: even a duplicate carries fresh ack state.
	if len(x.rel.pend) > 0 {
		kept := x.rel.pend[:0]
		for _, pe := range x.rel.pend {
			if pe.dst == m.Src && acked(pe.seq, m.AckFloor, m.AckBits) {
				continue
			}
			kept = append(kept, pe)
		}
		x.rel.pend = kept
	}
	if m.Ctrl {
		return false
	}
	if m.RelSeq == 0 {
		return true
	}
	st := &x.rel.recv[m.Src]
	if _, dup := st.seen[m.RelSeq]; dup || m.RelSeq <= st.floor {
		// The duplicate means the source has not seen our acknowledgment
		// (it may have died on a failed link) — re-arm it, or the source
		// retransmits into suppression until it abandons the message.
		x.net.dups++
		x.relArmAck(st, m.Src, now)
		return false
	}
	if m.RelSeq == st.floor+1 {
		st.floor++
		for {
			if _, ok := st.seen[st.floor+1]; !ok {
				break
			}
			delete(st.seen, st.floor+1)
			st.floor++
		}
	} else {
		if st.seen == nil {
			st.seen = make(map[int64]struct{})
		}
		st.seen[m.RelSeq] = struct{}{}
	}
	x.relArmAck(st, m.Src, now)
	return true
}

// relArmAck schedules an acknowledgment toward src and reactivates this
// NI: relReceive runs during flit ejection, when the NI may be parked
// with no wake registered (an idle receiver has none), and a pending ack
// it never wakes for is an ack never sent.
func (x *ni) relArmAck(st *recvState, src topology.NodeID, now int64) {
	if !st.ackPending {
		st.ackPending = true
		st.ackAt = now + x.net.rel.AckDelay
		if !st.inAckList {
			st.inAckList = true
			x.rel.ackPeers = append(x.rel.ackPeers, src)
		}
	}
	x.net.actNIs.add(int(x.node))
}

// relNextWake returns the earliest cycle the reliability layer needs this
// (otherwise idle) NI to tick: the next retransmission deadline or pure-ack
// send. ok is false when neither is outstanding.
func (x *ni) relNextWake() (int64, bool) {
	at := int64(-1)
	for _, pe := range x.rel.pend {
		if at < 0 || pe.deadline < at {
			at = pe.deadline
		}
	}
	for _, src := range x.rel.ackPeers {
		if st := &x.rel.recv[src]; st.ackPending && (at < 0 || st.ackAt < at) {
			at = st.ackAt
		}
	}
	return at, at >= 0
}

// Retransmits returns the number of retransmitted message copies sent by
// the reliability layer.
func (n *Network) Retransmits() int64 { return n.retrans }

// DupSuppressed returns the number of duplicate deliveries the reliability
// layer absorbed before the arrival observer.
func (n *Network) DupSuppressed() int64 { return n.dups }

// Abandoned returns the number of messages the reliability layer gave up
// on after exhausting MaxAttempts.
func (n *Network) Abandoned() int64 { return n.abandoned }
