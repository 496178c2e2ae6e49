package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"lapses/internal/topology"
)

// A Schedule extends the static Plan with time: each element fails at a
// cycle and optionally heals at a later one, so the topology the network
// routes over changes while traffic is in flight. A schedule is a sequence
// of epochs — maximal intervals with a constant fault set — each carrying
// the immutable Plan in effect during it. Every epoch's live subgraph must
// be connected (the same precondition static plans enforce, applied at
// every instant), so fault-aware routing exists across every transition.
//
// A static plan is the one-epoch schedule: every event down at cycle 0,
// none healing. Static wraps a Plan as one, and ParseSchedule reads a spec
// of untimed items as one; either way the schedule keys as its plan, so
// equal damage shares a key however it was spelled. A nil *Schedule is a
// healthy network: one epoch, whose plan is nil.

// SchedEvent is one timed failure: a link or a router goes down at cycle
// Down and (when Up >= 0) comes back at cycle Up. Up < 0 means the
// element never heals.
type SchedEvent struct {
	// Link names the failing link when IsRouter is false.
	Link Link
	// Router names the failing router when IsRouter is true.
	Router topology.NodeID
	// IsRouter selects which of the two fields is meaningful.
	IsRouter bool
	// Down is the cycle the element fails (inclusive).
	Down int64
	// Up is the cycle the element heals (exclusive: the element is live
	// again from cycle Up). Negative means permanent.
	Up int64
}

// Schedule is an immutable timed fault plan over one topology. Construct
// with NewSchedule, ParseSchedule, RandomSchedule or Static.
type Schedule struct {
	dims   []int
	wrap   bool
	events []SchedEvent
	// times[i] is the first cycle of epoch i (times[0] == 0); plans[i] is
	// the fault set in effect for cycles [times[i], times[i+1]).
	times []int64
	plans []*Plan
	key   string
}

// NewSchedule builds a schedule from explicit events, materializing and
// validating the plan of every epoch. It errors when any event is
// malformed (bad element, Up <= Down) or any epoch's live subgraph is
// disconnected.
func NewSchedule(m *topology.Mesh, events []SchedEvent) (*Schedule, error) {
	s := &Schedule{
		dims:   append([]int(nil), m.Dims()...),
		wrap:   m.Wrap(),
		events: append([]SchedEvent(nil), events...),
	}
	for i, e := range s.events {
		if e.Down < 0 {
			return nil, fmt.Errorf("fault: schedule event down at negative cycle %d", e.Down)
		}
		if e.Up >= 0 && e.Up <= e.Down {
			return nil, fmt.Errorf("fault: schedule event heals at %d, not after failing at %d", e.Up, e.Down)
		}
		// Canonicalize links to their positive-direction end so the two
		// spellings of one link ("1-2", "2-1") key identically.
		if !e.IsRouter && topology.PortSign(e.Link.Port) < 0 {
			nb, ok := m.Neighbor(e.Link.Node, e.Link.Port)
			if !ok {
				return nil, fmt.Errorf("fault: node %d has no link through port %d", e.Link.Node, e.Link.Port)
			}
			s.events[i].Link = Link{Node: nb, Port: topology.Opposite(e.Link.Port)}
		}
	}
	// Canonical event order: routers after links, then by element, then by
	// failure time — the order the key renders in.
	sort.SliceStable(s.events, func(i, j int) bool {
		a, b := s.events[i], s.events[j]
		if a.IsRouter != b.IsRouter {
			return !a.IsRouter
		}
		if a.IsRouter {
			if a.Router != b.Router {
				return a.Router < b.Router
			}
		} else {
			if a.Link.Node != b.Link.Node {
				return a.Link.Node < b.Link.Node
			}
			if a.Link.Port != b.Link.Port {
				return a.Link.Port < b.Link.Port
			}
		}
		return a.Down < b.Down
	})

	// Epoch boundaries: cycle 0 plus every down and up time.
	set := map[int64]bool{0: true}
	for _, e := range s.events {
		set[e.Down] = true
		if e.Up > 0 {
			set[e.Up] = true
		}
	}
	for t := range set {
		s.times = append(s.times, t)
	}
	sort.Slice(s.times, func(i, j int) bool { return s.times[i] < s.times[j] })

	s.plans = make([]*Plan, len(s.times))
	for i, t := range s.times {
		p, err := planAt(m, s.events, t)
		if err != nil {
			return nil, fmt.Errorf("fault: schedule epoch at cycle %d: %w", t, err)
		}
		if !p.Connected(m) {
			return nil, fmt.Errorf("fault: schedule disconnects %s during [%d, ...): %s", m, t, p)
		}
		s.plans[i] = p
	}

	if len(s.plans) == 1 {
		s.key = s.plans[0].key
		return s, nil
	}
	var b strings.Builder
	for i, e := range s.events {
		if i > 0 {
			b.WriteByte(';')
		}
		if e.IsRouter {
			fmt.Fprintf(&b, "r%d", e.Router)
		} else {
			nb, _ := m.Neighbor(e.Link.Node, e.Link.Port)
			fmt.Fprintf(&b, "%d-%d", e.Link.Node, nb)
		}
		fmt.Fprintf(&b, "@%d", e.Down)
		if e.Up >= 0 {
			fmt.Fprintf(&b, ":%d", e.Up)
		}
	}
	s.key = b.String()
	return s, nil
}

// ParseSchedule reads the CLI fault spec: comma-separated items, each a
// link "A-B" (adjacent node IDs) or a router "rN", optionally timed with
// "@DOWN" or "@DOWN:UP". An untimed item fails at cycle 0 and never heals,
// so a spec of untimed items is a static plan.
// Example: "12-13@5000:9000,r77@2000,40-41".
func ParseSchedule(m *topology.Mesh, spec string) (*Schedule, error) {
	events, err := parseItems(m, spec)
	if err != nil {
		return nil, err
	}
	return NewSchedule(m, events)
}

// RandomSchedule draws nLinks link events and nRouters router events with
// failure times uniform in [horizon/8, horizon/2] and, with probability
// 1/2, a repair within horizon/4 cycles of the failure. Draws whose epochs
// would disconnect the network are rejected and retried, like Random.
func RandomSchedule(m *topology.Mesh, nLinks, nRouters int, horizon, seed int64) (*Schedule, error) {
	if nLinks < 0 || nRouters < 0 {
		return nil, fmt.Errorf("fault: negative failure count")
	}
	if horizon < 8 {
		return nil, fmt.Errorf("fault: schedule horizon %d too short", horizon)
	}
	rng := rand.New(rand.NewSource(seed))
	all, err := linkUniverse(m, nLinks)
	if err != nil {
		return nil, err
	}
	const attempts = 200
	for try := 0; try < attempts; try++ {
		perm := rng.Perm(len(all))
		events := make([]SchedEvent, 0, nLinks+nRouters)
		draw := func(ev SchedEvent) SchedEvent {
			ev.Down = horizon/8 + rng.Int63n(horizon/2-horizon/8+1)
			ev.Up = -1
			if rng.Intn(2) == 0 {
				ev.Up = ev.Down + 1 + rng.Int63n(horizon/4)
			}
			return ev
		}
		for i := 0; i < nLinks; i++ {
			events = append(events, draw(SchedEvent{Link: all[perm[i]]}))
		}
		seen := map[topology.NodeID]bool{}
		for len(seen) < nRouters {
			r := topology.NodeID(rng.Intn(m.N()))
			if seen[r] {
				continue
			}
			seen[r] = true
			events = append(events, draw(SchedEvent{IsRouter: true, Router: r}))
		}
		s, err := NewSchedule(m, events)
		if err == nil {
			return s, nil
		}
	}
	return nil, fmt.Errorf("fault: no connected schedule with %d links + %d routers failing in %s after %d draws",
		nLinks, nRouters, m, attempts)
}

// Static returns the one-epoch schedule of p's damage: down from cycle 0,
// never healed. It is nil when p is healthy. Like Random's plans, it is not
// checked for connectivity; routing over it reports a disconnection.
func Static(p *Plan) *Schedule {
	if p.Empty() {
		return nil
	}
	s := &Schedule{dims: p.dims, wrap: p.wrap, times: []int64{0}, plans: []*Plan{p}, key: p.key}
	for _, l := range p.links {
		s.events = append(s.events, SchedEvent{Link: l, Up: -1})
	}
	for _, r := range p.routers {
		s.events = append(s.events, SchedEvent{IsRouter: true, Router: r, Up: -1})
	}
	return s
}

// Epochs returns the number of constant-topology intervals: 1 for a static
// plan and for a nil schedule.
func (s *Schedule) Epochs() int {
	if s == nil {
		return 1
	}
	return len(s.plans)
}

// Times returns the first cycle of each epoch (Times()[0] == 0). The
// caller must not modify it.
func (s *Schedule) Times() []int64 { return s.times }

// Plan returns the fault set in effect during epoch i (nil for a nil
// schedule).
func (s *Schedule) Plan(i int) *Plan {
	if s == nil {
		return nil
	}
	return s.plans[i]
}

// EpochAt returns the index of the epoch containing cycle t.
func (s *Schedule) EpochAt(t int64) int {
	i := sort.Search(len(s.times), func(i int) bool { return s.times[i] > t }) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// PlanAt returns the fault set in effect at cycle t.
func (s *Schedule) PlanAt(t int64) *Plan { return s.plans[s.EpochAt(t)] }

// Events returns the canonical event list. The caller must not modify it.
func (s *Schedule) Events() []SchedEvent {
	if s == nil {
		return nil
	}
	return s.events
}

// Empty reports whether nothing ever fails: a nil schedule, or one with no
// events.
func (s *Schedule) Empty() bool { return s == nil || len(s.events) == 0 }

// FailsRouters reports whether any router fails at any time.
func (s *Schedule) FailsRouters() bool {
	for _, e := range s.Events() {
		if e.IsRouter {
			return true
		}
	}
	return false
}

// FirstDown returns the earliest transition cycle that adds damage, or -1
// when no transition does (static schedules).
func (s *Schedule) FirstDown() int64 {
	first := int64(-1)
	for _, e := range s.events {
		if e.Down > 0 && (first < 0 || e.Down < first) {
			first = e.Down
		}
	}
	return first
}

// LastDown returns the latest cycle at which damage is added, or -1 when
// none is (static schedules).
func (s *Schedule) LastDown() int64 {
	last := int64(-1)
	for _, e := range s.events {
		if e.Down > 0 && e.Down > last {
			last = e.Down
		}
	}
	return last
}

// Fits reports whether the schedule was built for exactly m's topology.
func (s *Schedule) Fits(m *topology.Mesh) bool {
	if s == nil {
		return true
	}
	if s.wrap != m.Wrap() || len(s.dims) != m.NumDims() {
		return false
	}
	for d, k := range s.dims {
		if m.Radix(d) != k {
			return false
		}
	}
	return true
}

// Key returns the canonical content key: two schedules over the same
// topology with the same timed events have equal keys, and a static one
// keys as its plan (Plan.Key), so the key of a static schedule never holds
// an "@" and that of a timed one always does. A nil schedule's key is "".
func (s *Schedule) Key() string {
	if s == nil {
		return ""
	}
	return s.key
}

// String renders the schedule for logs and CLI output.
func (s *Schedule) String() string {
	if s.Empty() {
		return "no faults"
	}
	if len(s.plans) == 1 {
		return s.plans[0].String()
	}
	return fmt.Sprintf("schedule[%s]", s.key)
}
