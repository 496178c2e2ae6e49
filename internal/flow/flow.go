// Package flow defines the units of data movement in the wormhole network:
// messages, the flits they are serialized into, virtual-channel masks, and
// the route-candidate sets produced by routing tables and consumed by the
// path-selection stage. These types are shared between the routing tables,
// the router pipeline, and the traffic generators.
package flow

import (
	"fmt"
	"math/bits"
	"strings"

	"lapses/internal/topology"
)

// MessageID uniquely identifies a message within one simulation.
type MessageID int64

// Message is one wormhole message (the paper's unit of traffic; a constant
// 20 flits in most experiments). Timing fields are filled in as the message
// moves through the network and read by the statistics collector.
type Message struct {
	ID  MessageID
	Src topology.NodeID
	Dst topology.NodeID
	// Length is the message length in flits, including head and tail.
	Length int

	// CreateTime is the cycle the message was generated at the source NI.
	CreateTime int64
	// InjectTime is the cycle the header flit entered the source router.
	InjectTime int64
	// ArriveTime is the cycle the tail flit was delivered at the
	// destination local port.
	ArriveTime int64

	// Hops counts router-to-router link traversals, for path-length stats.
	Hops int

	// Class is the QoS traffic class, fixed at generation: 0 is best-effort
	// and, when the router reserves VCs (router.Config.ResvVCs), excluded
	// from the reserved adaptive VCs; higher classes may claim every VC.
	// Unlike Route/Dateline it is immutable header state, so reading it at
	// any hop is race-free by construction.
	Class uint8

	// Route carries the candidate set valid at the router the header flit
	// is at or traveling toward, and Dateline the per-dimension torus
	// wraparound bits. Under LA-PROUD the upstream SA stage writes Route
	// (the paper's modified header); under PROUD the router writes its own
	// table lookup there when the header reaches the front of its input
	// buffer. Either way SA reads the candidates from here. They are per-hop
	// header state, but they ride on the Message rather than the Flit:
	// the header exists at exactly one point of the network at a time, so
	// the SA stage of hop k writes these strictly before the input stage
	// of hop k+1 reads them, and a single shared slot is indistinguishable
	// from a field carried in the flit — while keeping the Flit value,
	// which is copied through every buffer and wheel slot, at 16 bytes.
	Route    RouteSet
	Dateline uint8
	// EscapeCommitted marks a message that has claimed an escape VC under
	// the router's escape-commit discipline (router.Config.EscapeCommit):
	// it rides escape VCs for the rest of its journey. Like Route and
	// Dateline it is per-hop header state written by the SA stage of one
	// hop strictly before the next hop reads it. Healthy minimal routing
	// never sets it; the fault-aware up*/down* escape requires it.
	EscapeCommitted bool

	// RelSeq is the end-to-end reliability sequence number within the
	// (Src, Dst) stream, assigned by the source NI when the reliability
	// layer is on; 0 marks an untracked message. A retransmitted copy
	// carries the original's RelSeq (and ID), which is how the receiver
	// deduplicates. Immutable after generation.
	RelSeq int64
	// AckFloor and AckBits piggyback the sender's view of the reverse
	// (Dst, Src) stream on every message it emits: every sequence number
	// <= AckFloor has been received, and bit k of AckBits acknowledges
	// AckFloor+1+k. Filled at injection time, read once at delivery.
	AckFloor int64
	AckBits  uint64
	// Ctrl marks a pure acknowledgment message generated by the
	// reliability layer: one flit, consumed by the destination NI without
	// being delivered to the application (never counted in Throughput).
	Ctrl bool
}

// FlitType distinguishes the roles of flits within a message.
type FlitType uint8

const (
	// Head flits carry routing information and allocate channel state.
	Head FlitType = iota
	// Body flits follow the path the head reserved.
	Body
	// Tail flits release reserved channel state as they pass.
	Tail
	// HeadTail is a single-flit message: both Head and Tail.
	HeadTail
)

// IsHead reports whether the flit type carries routing information.
func (t FlitType) IsHead() bool { return t == Head || t == HeadTail }

// IsTail reports whether the flit type releases channel state.
func (t FlitType) IsTail() bool { return t == Tail || t == HeadTail }

func (t FlitType) String() string {
	switch t {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "headtail"
	}
	return fmt.Sprintf("FlitType(%d)", uint8(t))
}

// Flit is the flow-control unit. Flits are passed by value through buffers;
// only the Message is shared. Head flits logically carry the routing
// header (candidate set and dateline bits); see Message.Route for where
// that state is stored and why.
type Flit struct {
	Msg  *Message
	Seq  int32
	Type FlitType
}

// TypeFor returns the flit type for position seq in a message of the given
// length.
func TypeFor(seq, length int) FlitType {
	switch {
	case length == 1:
		return HeadTail
	case seq == 0:
		return Head
	case seq == length-1:
		return Tail
	default:
		return Body
	}
}

// FlitAt returns flit seq of msg. A flit is a pure function of its message
// and position, and every flit entering the network is built here: that is
// what lets the router's buffers store runs of (message, first seq, count)
// and rebuild the flits on the way out.
func FlitAt(msg *Message, seq int) Flit {
	return Flit{Msg: msg, Seq: int32(seq), Type: TypeFor(seq, msg.Length)}
}

// VCID names a virtual channel within one physical channel, 0-based.
type VCID int8

// VCMask is a bitmask of virtual channels (bit v = VC v). Routing tables
// use masks to express which VCs a candidate output port may be claimed on:
// Duato's algorithm allows adaptive VCs on every minimal port but the
// escape VC only on the dimension-order port.
type VCMask uint16

// MaskAll returns a mask with the lowest n VC bits set.
func MaskAll(n int) VCMask { return VCMask(1<<n) - 1 }

// MaskOf returns a mask containing exactly the given VCs.
func MaskOf(vcs ...VCID) VCMask {
	var m VCMask
	for _, v := range vcs {
		m |= 1 << v
	}
	return m
}

// Has reports whether VC v is in the mask.
func (m VCMask) Has(v VCID) bool { return m&(1<<v) != 0 }

// Count returns the number of VCs in the mask.
func (m VCMask) Count() int { return bits.OnesCount16(uint16(m)) }

// Lowest returns the lowest-numbered VC in the mask; it panics on an empty
// mask, which is always a caller bug.
func (m VCMask) Lowest() VCID {
	if m == 0 {
		panic("flow: Lowest of empty VCMask")
	}
	return VCID(bits.TrailingZeros16(uint16(m)))
}

// Candidate is one routing option: an output port and the VCs the message
// may claim on it, split into adaptive and escape classes per Duato's
// methodology. A deterministic route has only the Escape class populated
// (or Adaptive covering every VC, depending on table programming).
type Candidate struct {
	Port topology.Port
	// Adaptive is the mask of freely usable (fully adaptive) VCs.
	Adaptive VCMask
	// Escape is the mask of escape VCs usable on this port. Only the
	// port selected by the escape routing subfunction has a nonzero
	// escape mask.
	Escape VCMask
}

// All returns the union of the adaptive and escape masks.
func (c Candidate) All() VCMask { return c.Adaptive | c.Escape }

// MaxCandidates bounds the number of alternatives a routing function may
// return: one port per dimension in a minimal n-dimensional mesh (the paper
// notes at most two in 2-D). Four covers up to 4-D networks.
const MaxCandidates = 4

// RouteSet is a fixed-capacity set of routing candidates, ordered by the
// table's preference (dimension order first, matching STATIC-XY's bias).
// The zero value is the empty set.
type RouteSet struct {
	n int8
	c [MaxCandidates]Candidate
}

// Add appends a candidate; it panics beyond MaxCandidates since routing
// functions in meshes never produce more than one option per dimension.
func (r *RouteSet) Add(c Candidate) {
	if int(r.n) >= MaxCandidates {
		panic("flow: RouteSet overflow")
	}
	r.c[r.n] = c
	r.n++
}

// Len returns the number of candidates.
func (r RouteSet) Len() int { return int(r.n) }

// At returns candidate i.
func (r RouteSet) At(i int) Candidate { return r.c[i] }

// Empty reports whether the set has no candidates.
func (r RouteSet) Empty() bool { return r.n == 0 }

// Ports returns the candidate ports in preference order, allocating.
// Intended for tests and diagnostics, not the router fast path.
func (r RouteSet) Ports() []topology.Port {
	out := make([]topology.Port, r.n)
	for i := 0; i < int(r.n); i++ {
		out[i] = r.c[i].Port
	}
	return out
}

// Equal reports whether two route sets contain the same candidates in the
// same order.
func (r RouteSet) Equal(o RouteSet) bool {
	if r.n != o.n {
		return false
	}
	for i := 0; i < int(r.n); i++ {
		if r.c[i] != o.c[i] {
			return false
		}
	}
	return true
}

// String renders the set as e.g. "{+X[a:0b1110 e:0b0001] +Y[a:0b1110]}".
func (r RouteSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < int(r.n); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		c := r.c[i]
		fmt.Fprintf(&b, "p%d[a:%b e:%b]", c.Port, c.Adaptive, c.Escape)
	}
	b.WriteByte('}')
	return b.String()
}
