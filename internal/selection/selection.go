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
// Selectors are stateless: the usage counters they score with (port use
// counts, last-use cycles, credit levels, busy-VC counts) belong to the
// router and are exposed through the PortView interface, mirroring the
// hardware split between the selection logic and the per-port counters it
// reads (section 4.1 discusses the counter costs of each policy).
//
// # Notification selection
//
// The Notify* family (NotifyLRU, NotifyLFU, NotifyMaxCredit) extends the
// local heuristics with a congestion signal the local counters cannot
// see: each router quantizes its input-buffer occupancy to a 2-bit level
// and piggybacks it on the credits it returns upstream, so the upstream
// router maintains a per-output-port estimate of downstream congestion
// (PortView.RemoteCongestion) at zero extra traffic. A Notify selector
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
	"math/rand"
	"unsafe"

	"lapses/internal/flow"
	"lapses/internal/lfib"
	"lapses/internal/topology"
)

// PortView exposes the per-output-port state a selector may score
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

// Selector picks one candidate among the currently usable alternatives.
type Selector interface {
	// Select returns the index (into rs) of the chosen candidate.
	// eligible is a nonzero bitmask of candidate indices that currently
	// have a claimable VC; the selector must return one of them.
	Select(view PortView, rs flow.RouteSet, eligible uint8) int
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

// New returns a selector of the given kind. seed matters only for Random;
// every router gets its own selector so randomized runs stay deterministic
// for a fixed configuration seed.
func New(k Kind, seed int64) Selector {
	switch k {
	case StaticXY:
		return staticXY{}
	case MinMux:
		return minMux{}
	case LFU:
		return lfu{}
	case LRU:
		return lru{}
	case MaxCredit:
		return maxCredit{}
	case Random:
		return NewBlock(Random, 1, seed, 0).Sels[0]
	case NotifyLRU:
		return notify{inner: lru{}}
	case NotifyLFU:
		return notify{inner: lfu{}}
	case NotifyMaxCredit:
		return notify{inner: maxCredit{}}
	}
	panic("selection: unknown kind")
}

// Block is the selectors of a block of routers in one arena. AllocBlock
// sizes it by the router count alone; Reset is the only initialiser —
// NewBlock is the two in a row — so a Block that has been reset is the one
// NewBlock would have built, whatever policy ran in it before.
type Block struct {
	// Sels holds router i's selector at index i.
	Sels []Selector
	// rands and vecs are Random's generators and the vectors they expand
	// into, allocated by a Random reset and dropped by any other.
	rands []random
	vecs  []lfib.Vec
}

// AllocBlock returns the storage of n routers' selectors. It is not usable
// until Reset.
func AllocBlock(n int) *Block {
	return &Block{Sels: make([]Selector, n)}
}

// NewBlock returns the selectors of n routers, router i's seeded
// seed+i*stride.
func NewBlock(k Kind, n int, seed, stride int64) *Block {
	b := AllocBlock(n)
	b.Reset(k, seed, stride)
	return b
}

// Reset programs every router's selector as policy k, router i's seeded
// seed+i*stride. Only Random carries state — a generator per router, kept
// and reseeded in place while consecutive resets stay Random, dropped
// otherwise; every other policy reads nothing but the PortView it is
// handed, so the routers share one value.
func (b *Block) Reset(k Kind, seed, stride int64) {
	if k != Random {
		b.rands, b.vecs = nil, nil
		shared := New(k, 0)
		for i := range b.Sels {
			b.Sels[i] = shared
		}
		return
	}
	if b.rands == nil {
		b.rands, b.vecs = make([]random, len(b.Sels)), make([]lfib.Vec, len(b.Sels))
		for i := range b.rands {
			b.rands[i].src = lfib.New(0, &b.vecs[i])
		}
	}
	for i := range b.Sels {
		r := &b.rands[i]
		r.src.Seed(seed + int64(i)*stride)
		r.rng = *rand.New(&r.src)
		b.Sels[i] = r
	}
}

// Bytes returns the size of the slabs, Random's generators included.
func (b *Block) Bytes() int {
	return len(b.Sels)*int(unsafe.Sizeof(b.Sels[0])) +
		len(b.rands)*int(unsafe.Sizeof(random{})+unsafe.Sizeof(lfib.Vec{}))
}

type staticXY struct{}

// Select returns the first eligible candidate: tables emit candidates in
// dimension order, so this realizes the paper's X-first preference.
func (staticXY) Select(_ PortView, rs flow.RouteSet, eligible uint8) int {
	for i := 0; i < rs.Len(); i++ {
		if eligible&(1<<i) != 0 {
			return i
		}
	}
	panic("selection: no eligible candidate")
}

// argBest scans eligible candidates and returns the index whose score is
// strictly best under less; ties keep the earlier (dimension-order) index.
func argBest(rs flow.RouteSet, eligible uint8, score func(i int) int64, lowerIsBetter bool) int {
	best := -1
	var bestScore int64
	for i := 0; i < rs.Len(); i++ {
		if eligible&(1<<i) == 0 {
			continue
		}
		s := score(i)
		if best < 0 || (lowerIsBetter && s < bestScore) || (!lowerIsBetter && s > bestScore) {
			best, bestScore = i, s
		}
	}
	if best < 0 {
		panic("selection: no eligible candidate")
	}
	return best
}

type minMux struct{}

// Select picks the candidate whose physical channel multiplexes the fewest
// active VCs (Duato's policy, section 4.1).
func (minMux) Select(v PortView, rs flow.RouteSet, eligible uint8) int {
	return argBest(rs, eligible, func(i int) int64 {
		return int64(v.BusyVCs(rs.At(i).Port))
	}, true)
}

type lfu struct{}

// Select picks the candidate with the lowest cumulative usage count,
// balancing link utilization over the run.
func (lfu) Select(v PortView, rs flow.RouteSet, eligible uint8) int {
	return argBest(rs, eligible, func(i int) int64 {
		return int64(v.UseCount(rs.At(i).Port))
	}, true)
}

type lru struct{}

// Select picks the candidate used farthest in the past; recent history is
// a better congestion signal than cumulative history.
func (lru) Select(v PortView, rs flow.RouteSet, eligible uint8) int {
	return argBest(rs, eligible, func(i int) int64 {
		return v.LastUsed(rs.At(i).Port)
	}, true)
}

type maxCredit struct{}

// Select picks the candidate whose physical channel holds the most
// flow-control credits: plenty of downstream buffer space suggests low
// congestion at the next router.
func (maxCredit) Select(v PortView, rs flow.RouteSet, eligible uint8) int {
	return argBest(rs, eligible, func(i int) int64 {
		return int64(v.Credits(rs.At(i).Port))
	}, false)
}

type random struct {
	src lfib.Source
	rng rand.Rand
}

// Select picks uniformly among the eligible candidates.
func (r *random) Select(_ PortView, rs flow.RouteSet, eligible uint8) int {
	var idx [flow.MaxCandidates]int
	n := 0
	for i := 0; i < rs.Len(); i++ {
		if eligible&(1<<i) != 0 {
			idx[n] = i
			n++
		}
	}
	if n == 0 {
		panic("selection: no eligible candidate")
	}
	return idx[r.rng.Intn(n)]
}

// notify is the congestion-notification family (Rocher-Gonzalez-style
// adaptive-routing notifications): each candidate is scored by the
// quantized congestion level its downstream router piggybacked on credits,
// the eligible set is restricted to the minimum level, and the wrapped
// local heuristic breaks ties among the survivors. With no notifications
// yet (all levels 0) this degenerates exactly to the local heuristic.
type notify struct{ inner Selector }

func (s notify) Select(v PortView, rs flow.RouteSet, eligible uint8) int {
	minLevel := uint8(255)
	for i := 0; i < rs.Len(); i++ {
		if eligible&(1<<i) == 0 {
			continue
		}
		if l := v.RemoteCongestion(rs.At(i).Port); l < minLevel {
			minLevel = l
		}
	}
	filtered := uint8(0)
	for i := 0; i < rs.Len(); i++ {
		if eligible&(1<<i) != 0 && v.RemoteCongestion(rs.At(i).Port) == minLevel {
			filtered |= 1 << i
		}
	}
	return s.inner.Select(v, rs, filtered)
}
