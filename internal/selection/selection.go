// Package selection implements the path-selection heuristics of section 4:
// given the candidate output ports an adaptive routing table returned, and
// the subset currently usable (a free VC and buffer space), pick the one
// the message will arbitrate for.
//
// STATIC-XY (dimension-order preference) and MIN-MUX (minimum VC
// multiplexing degree, from Duato) are the baselines; LFU, LRU and
// MAX-CREDIT are the paper's proposed traffic-sensitive heuristics. RANDOM
// (Chaos-router style) is included as an extra baseline. The paper's
// "first-available-free-path" policy coincides with STATIC-XY here because
// the router only offers currently-available candidates to the selector.
//
// Selection is one function of the policy, Kind.Select: combinational
// logic over the candidates, holding no state. The usage counters the
// local heuristics score with (port use counts, last-use cycles, credit
// levels, busy-VC counts) belong to the router and are exposed through the
// PortView interface, mirroring the hardware split between the selection
// logic and the per-port counters it reads (section 4.1 discusses the
// counter costs of each policy).
//
// RANDOM keeps no generator either. Its pick for a message at a router is
// keyed by the run's seed, the router and the message: the i-th eligible
// candidate, i being a fixed 64-bit mix of the three modulo the eligible
// count. The
// router selects at most once per message, when a claim follows, so each
// message still gets one uniform draw at each router, and the draw does
// not depend on the order in which the kernel visits routers or messages:
// both kernels pick the same port whenever they see the same eligible set.
//
// # Notification selection
//
// The Notify* family (NotifyLRU, NotifyLFU, NotifyMaxCredit) extends the
// local heuristics with a congestion signal the local counters cannot
// see: each router quantizes its input-buffer occupancy to a 2-bit level
// and piggybacks it on the credits it returns upstream, so the upstream
// router maintains a per-output-port estimate of downstream congestion
// (PortView.RemoteCongestion) at zero extra traffic. A Notify policy
// first restricts the candidate ports to those with the minimum remote
// level, then breaks ties with its inner local heuristic — on a healthy
// network where every level reads equal, it degenerates to the local
// policy exactly.
//
// Determinism: the piggybacked levels ride the credit path and are
// delivered in credit order. The signal is stale by the credit round-trip
// — that lag is part of the model, not noise, and a fixed configuration
// reproduces bit-for-bit. Dead links never return credits, so a failed
// port's level freezes at its last (or zero) value; the routing layer has
// already removed such ports from the candidate set.
package selection

import (
	"fmt"
	"math/bits"

	"lapses/internal/flow"
	"lapses/internal/topology"
)

// PortView exposes the per-output-port state a policy may score
// candidates with. The router implements it.
type PortView interface {
	// BusyVCs returns the number of currently-allocated VCs on output
	// port p — MIN-MUX's "degree of VC multiplexing".
	BusyVCs(p topology.Port) int
	// Credits returns the flow-control credits summed over every VC of
	// output port p — MAX-CREDIT's score.
	Credits(p topology.Port) int
	// UseCount returns the cumulative number of flits sent through
	// output port p — LFU's counter.
	UseCount(p topology.Port) uint64
	// LastUsed returns the most recent cycle a flit was sent through
	// output port p, or -1 if never — LRU's age stamp.
	LastUsed(p topology.Port) int64
	// RemoteCongestion returns the latest quantized congestion level
	// (0 = idle .. 3 = saturated) the downstream router on output port p
	// piggybacked on its credits, or 0 if none arrived yet — the Notify*
	// policies' remote signal. Local ports always read 0.
	RemoteCongestion(p topology.Port) uint8
}

// Kind names a selection policy.
type Kind int

const (
	// StaticXY prefers candidates in table order (dimension order).
	StaticXY Kind = iota
	// MinMux picks the port with the fewest busy VCs.
	MinMux
	// LFU picks the port with the lowest cumulative use count.
	LFU
	// LRU picks the port unused for the longest time.
	LRU
	// MaxCredit picks the port with the most flow-control credits.
	MaxCredit
	// Random picks uniformly among eligible candidates.
	Random
	// NotifyLRU restricts candidates to the least-congested downstream
	// quadrant (per the piggybacked notification signal), breaking ties
	// with LRU.
	NotifyLRU
	// NotifyLFU is the notification filter with LFU tie-breaking.
	NotifyLFU
	// NotifyMaxCredit is the notification filter with MAX-CREDIT
	// tie-breaking.
	NotifyMaxCredit
)

// Kinds lists every selection policy, in the order Fig. 6 plots them
// (plus Random and the notification-driven family).
var Kinds = []Kind{StaticXY, MinMux, LFU, LRU, MaxCredit, Random,
	NotifyLRU, NotifyLFU, NotifyMaxCredit}

// IsNotify reports whether the policy consumes the piggybacked
// remote-congestion signal; the network only computes and delivers
// notifications when the configured selector needs them, so goldens with
// local policies stay byte-identical.
func (k Kind) IsNotify() bool {
	return k == NotifyLRU || k == NotifyLFU || k == NotifyMaxCredit
}

func (k Kind) String() string {
	switch k {
	case StaticXY:
		return "static-xy"
	case MinMux:
		return "min-mux"
	case LFU:
		return "lfu"
	case LRU:
		return "lru"
	case MaxCredit:
		return "max-credit"
	case Random:
		return "random"
	case NotifyLRU:
		return "notify-lru"
	case NotifyLFU:
		return "notify-lfu"
	case NotifyMaxCredit:
		return "notify-max-credit"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a policy name to its Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("selection: unknown policy %q", s)
}

// MarshalText spells k by name, the form ParseKind reads.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a name with ParseKind.
func (k *Kind) UnmarshalText(b []byte) (err error) {
	*k, err = ParseKind(string(b))
	return err
}

// Select returns the index (into rs) of the candidate policy k picks among
// eligible, a nonzero bitmask of candidate indices that currently have a
// claimable VC; the pick is always one of them. v supplies the per-port
// counters the local heuristics score with; ties keep the earlier
// (dimension-order) index. A notify kind first keeps only the candidates
// at the minimum remote level, then applies its local heuristic. Random
// reads no counter: it takes the i-th eligible candidate, i being a fixed
// 64-bit mix of (seed, router, msg) modulo the eligible count, so one
// message's pick at one router depends on nothing but those three and the
// eligible set; the other kinds ignore them.
func (k Kind) Select(v PortView, rs flow.RouteSet, eligible uint8, seed int64, router topology.NodeID, msg flow.MessageID) int {
	eligible &= 1<<rs.Len() - 1
	if eligible == 0 {
		panic("selection: no eligible candidate")
	}
	switch k {
	case StaticXY:
		// Tables emit candidates in dimension order, so the first eligible
		// one realizes the paper's X-first preference.
		return bits.TrailingZeros8(eligible)
	case Random:
		i := int(draw(seed, router, msg) % uint64(bits.OnesCount8(eligible)))
		for ; i > 0; i-- {
			eligible &= eligible - 1
		}
		return bits.TrailingZeros8(eligible)
	case NotifyLRU, NotifyLFU, NotifyMaxCredit:
		minLevel := uint8(255)
		for i := 0; i < rs.Len(); i++ {
			if eligible&(1<<i) != 0 {
				minLevel = min(minLevel, v.RemoteCongestion(rs.At(i).Port))
			}
		}
		for i := 0; i < rs.Len(); i++ {
			if eligible&(1<<i) != 0 && v.RemoteCongestion(rs.At(i).Port) != minLevel {
				eligible &^= 1 << i
			}
		}
		k = local[k]
	}
	best, bestScore := -1, int64(0)
	for i := 0; i < rs.Len(); i++ {
		if eligible&(1<<i) == 0 {
			continue
		}
		p := rs.At(i).Port
		var s int64 // lower is better
		switch k {
		case MinMux:
			// Duato's policy (section 4.1): the physical channel that
			// multiplexes the fewest active VCs.
			s = int64(v.BusyVCs(p))
		case LFU:
			// The lowest cumulative use count balances link utilization
			// over the run.
			s = int64(v.UseCount(p))
		case LRU:
			// The port used farthest in the past: recent history is a
			// better congestion signal than cumulative history.
			s = v.LastUsed(p)
		case MaxCredit:
			// The most downstream buffer space suggests the least
			// congestion at the next router.
			s = -int64(v.Credits(p))
		default:
			panic(fmt.Sprintf("selection: unknown kind %v", k))
		}
		if best < 0 || s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// local is each notify kind's local heuristic.
var local = [...]Kind{NotifyLRU: LRU, NotifyLFU: LFU, NotifyMaxCredit: MaxCredit}

// draw is Random's uniform 64-bit value for one message at one router: a
// splitmix64 finalizer chained over the run's seed, the router and the
// message, so it depends on nothing else — not on how many draws came
// before, nor in which order the kernel made them.
func draw(seed int64, router topology.NodeID, msg flow.MessageID) uint64 {
	return mix(mix(mix(uint64(seed)+gamma)+uint64(router)) + uint64(msg))
}

// gamma is splitmix64's increment (2^64 over the golden ratio).
const gamma = 0x9e3779b97f4a7c15

// mix is splitmix64's finalizer: a bijection of 64-bit values whose every
// output bit depends on every input bit.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
