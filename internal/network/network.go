// Package network assembles PROUD/LA-PROUD routers into a complete direct
// network: bidirectional links with configurable delay, credit return
// channels, per-node network interfaces with Poisson traffic generation,
// and the cycle loop with the paper's measurement methodology (warm-up
// messages excluded, statistics over a fixed count of measured messages,
// saturation guards).
//
// Two optional layers model networks that fail and recover mid-run. Damage
// arrives as one fault schedule (Config.Faults, with one prebuilt routing
// per epoch in Config.Routes); a static plan is its one-epoch case. A timed
// schedule applies link/router down/up transitions between cycles —
// dropping the state committed to dying equipment plus the messages the
// reconfiguration drain retires, swapping routing tables, and recomputing
// flow control; see the commentary in dynfault.go for the exact semantics
// and the deadlock argument. The end-to-end reliability layer
// (Config.Reliability) adds sender-timeout retransmission with
// receiver-side duplicate suppression at the NIs, turning those losses
// into exactly-once delivery; see reliability.go.
//
// Determinism: a run is bit-reproducible for a fixed configuration, on
// either kernel. The event kernel is not bit-identical to the cycle kernel,
// and its latency is biased low: in 24 of 24 seeded runs of core's
// equivalence points it measured 1.65-6.03 cycles below cycle mode, 11 of
// them outside the combined 95% CI (README, "Execution modes").
package network

import (
	"fmt"
	"unsafe"

	"lapses/internal/fault"
	"lapses/internal/flow"
	"lapses/internal/router"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/stats"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// Config assembles one network. Nothing here checks it: New and Reset
// trust a configuration core.Config.Validate has accepted, assembled by
// core.Run.
type Config struct {
	Mesh *topology.Mesh
	// Router is the per-router microarchitecture.
	Router router.Config
	// Class is the VC partition the tables are programmed with.
	Class routing.Class
	// Routes holds the routing every router's table lookup answers from,
	// one per epoch of Faults — one for a healthy network or a static plan
	// — each built over that epoch's live subgraph (see BuildEpochRoutes).
	// Routes are immutable, so callers running many simulations over the
	// same topology and routing policy share them across runs (see core's
	// plumbing cache).
	Routes []*table.Routes
	// Selection is the path-selection heuristic.
	Selection selection.Kind
	// Faults, when non-nil, degrades the topology: failed links carry no
	// flits and no credits (dead ports are gated in the routers), and NIs
	// on failed routers inject nothing. Under a timed schedule links and
	// routers fail and heal at their scheduled cycles: at each transition
	// the network purges every flit committed to dying equipment, swaps in
	// the epoch's routing tables, and recomputes flow-control credits from
	// global state (see dynfault.go). Under a static plan (one epoch) dead
	// routers stay dead: no traffic is addressed to them and their NIs
	// never wake. The Routes must already route around every epoch's damage
	// (core builds fault-aware ones); the network only enforces the
	// physical consequences.
	Faults *fault.Schedule
	// Reliability, when non-nil, turns on the end-to-end NI reliability
	// layer: sequence numbers per (src, dst) stream, piggybacked acks,
	// timeout retransmission with exponential backoff, receiver dedup —
	// exactly-once delivery across fault transients (see reliability.go).
	Reliability *Reliability
	// Pattern drives destination choice.
	Pattern traffic.Pattern
	// Trace, when non-nil, replaces the Pattern/MsgRate open-loop
	// generator with trace-driven injection (application workloads).
	Trace *traffic.Trace
	// MsgRate is the per-node message generation rate (messages/cycle).
	MsgRate float64
	// Burst, when non-nil, replaces each node's stationary Poisson source
	// with a two-state MMPP on/off source at the same mean rate (see
	// traffic.Burst). Trace workloads ignore it.
	Burst *traffic.Burst
	// QoSHiFrac is the probability a generated message is high-class
	// (flow.Message.Class 1); combined with Router.ResvVCs it reserves
	// adaptive VCs for that class. 0 keeps all traffic best-effort.
	QoSHiFrac float64
	// MsgLen is the message length in flits.
	MsgLen int
	// Seed makes runs reproducible.
	Seed int64
	// EventMode switches flit arrival to event-driven execution: a flit
	// landing on a quiescent router takes the express path (see
	// router.Arrive), transiting in O(1) work per flit with send and
	// credit times computed from the pipeline's timing constants instead
	// of emulated stage by stage. Routers carrying buffered traffic fall
	// back to the unchanged cycle-accurate pipeline. Per-message latency
	// is exact on uncontended paths, but event mode is not bit-identical
	// to cycle mode and under load its mean latency runs low (1.65-6.03
	// cycles in 24 of 24 seeded runs; see the package comment): admission
	// decisions consult arbiter state and port counters at arrival time
	// rather than at the emulated SA cycle. Runs remain deterministic for a
	// fixed configuration.
	EventMode bool
}

// LinkDelay is the wire latency between routers in cycles (Table 2: 1).
// core.LinkDelay is this constant.
const LinkDelay = 1

// hop is a send's latency: the output register plus the wire.
const hop = 1 + LinkDelay

// flitEvent is a flit in flight on a wire, due to latch into its
// destination router's input buffer. 24 bytes; copied twice per link
// traversal. In event mode, worm marks the event as an entire message
// crossing the wire as one unit: fl is the head flit and the remaining
// flits of fl.Msg follow at link rate behind it (see router.Arrive).
type flitEvent struct {
	fl   flow.Flit
	node topology.NodeID
	port topology.Port
	vc   flow.VCID
	worm bool
}

// creditEvent is a credit return (or, in event mode, a deferred express
// VC release) due at its cycle. Credits are a large share of all wheel
// traffic, so the event stays small. Flit and credit events ride separate
// wheels: within a cycle they touch disjoint state (input buffers vs
// output credit counters), so processing one class before the other is
// indistinguishable from the old interleaved order.
type creditEvent struct {
	node topology.NodeID
	n    int32 // credit count: 1 on the cycle path, a whole worm batched in event mode
	port topology.Port
	vc   flow.VCID
	kind uint8
	// cong piggybacks the credit issuer's quantized congestion level
	// (router.CongestionLevel) on creditToRouter events when a
	// notification-aware selector is configured; 0 otherwise. It is
	// sampled when the credit is issued and delivered with it, so the
	// signal is as stale as the credit round-trip.
	cong uint8
}

const (
	// creditToRouter returns n credits to a router output VC.
	creditToRouter uint8 = iota
	// creditToNI returns n injection credits to a node's NI.
	creditToNI
	// creditRelease frees the express output VC a worm transit claimed
	// (event mode only; n is unused).
	creditRelease
)

// wheel is a fixed-horizon event calendar for link and credit traversal.
// Its slots are a ring of reusable typed buffers: take hands the caller
// exclusive ownership of a slot's events and installs the spare buffer in
// its place, so buffers rotate through the slots and the steady state
// allocates nothing once each buffer has grown to its high-water mark.
type wheel[E any] struct {
	slots [][]E
	mask  int64
	// count tracks the events currently scheduled across all slots, so
	// the idle-cycle fast-forward check can test wheel emptiness without
	// scanning the ring.
	count int
	// spare is the drained buffer from the previous take, reinstalled on
	// the next one. Holding it for a full cycle (instead of truncating the
	// slot in place) makes ownership explicit: a schedule landing in the
	// slot just taken appends to a different buffer than the slice the
	// caller is still iterating.
	spare []E
}

func newWheel[E any](horizon int) *wheel[E] {
	// Round the slot count up to a power of two so the per-event slot
	// computation is a mask, not a division (extra slots are harmless —
	// events only ever land up to `horizon` cycles ahead).
	n := 1
	for n < horizon {
		n <<= 1
	}
	return &wheel[E]{slots: make([][]E, n), mask: int64(n - 1)}
}

func (w *wheel[E]) schedule(at int64, e E) {
	i := at & w.mask
	w.slots[i] = append(w.slots[i], e)
	w.count++
}

// take returns the events due at cycle `at` and transfers their slot's
// buffer to the caller until the next take. The returned slice stays
// intact across any same-cycle schedule calls; it is recycled one take
// later, so callers must finish with it within the cycle.
func (w *wheel[E]) take(at int64) []E {
	i := at & w.mask
	evs := w.slots[i]
	w.slots[i] = w.spare[:0]
	w.spare = evs[:0]
	w.count -= len(evs)
	return evs
}

// reset empties the wheel, keeping every slot buffer's capacity. The
// buffers are cleared to their capacity: take truncates without clearing, so
// slots beyond a buffer's length still hold events of earlier cycles, and a
// reset network should pin no message of the run before it.
func (w *wheel[E]) reset() {
	for i, s := range w.slots {
		clear(s[:cap(s)])
		w.slots[i] = s[:0]
	}
	clear(w.spare[:cap(w.spare)]) // take leaves it empty, not clean
	w.count = 0
}

// bytes returns the capacity the slot buffers have grown to.
func (w *wheel[E]) bytes() int {
	n := slabBytes(w.spare)
	for _, s := range w.slots {
		n += slabBytes(s)
	}
	return n
}

func slabBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// Shape is exactly what sizes a network's storage: the node and port counts
// (all the slabs see of the dimensions and the wraparound), the VC count and
// buffer depths, the kernel (event mode's wheel horizon also spans the input
// buffer depth), and whether the NIs carry the reliability layer's per-peer
// arrays. Everything else a Config says — tables, selection, look-ahead,
// rate, pattern, seed, burst, QoS, faults, a trace — is rewritten by Reset,
// so two configurations of one shape can run in the same network one after
// the other.
type Shape struct {
	nodes, ports                int
	vcs, bufDepth, outDepth     int
	eventMode, reliabilityLayer bool
}

// ShapeOf returns the shape of the network cfg describes.
func ShapeOf(cfg Config) Shape {
	return Shape{
		nodes: cfg.Mesh.N(), ports: cfg.Mesh.NumPorts(),
		vcs: cfg.Router.NumVCs, bufDepth: cfg.Router.BufDepth, outDepth: cfg.Router.OutDepth,
		eventMode: cfg.EventMode, reliabilityLayer: cfg.Reliability != nil,
	}
}

// arena is a network's storage: the slabs a Shape sizes, allocated once by
// alloc, plus the buffers that grow with use (wheel slots, wake heap, NI
// queues, the message pool, the delivery windows), which Reset empties while
// keeping their capacity. routers, nis and fabrics are value slabs indexed
// by node id: a network is built from a fixed number of allocations whatever
// its size, and a component is always reached as &slab[id].
type arena struct {
	shape Shape

	block   *router.Block
	routers []router.Router // block.Routers
	srcs    *traffic.Sources
	nis     []ni
	fabrics []nodeFabric
	// links caches, per (node, port), the downstream latch point — the
	// neighbor and its opposite port — so the per-flit send and credit
	// paths never recompute mesh coordinates.
	links []link

	// The NIs' per-VC and per-peer state, one slab each (see resetNIs).
	streams   []stream
	niCredits []int
	cursors   []traffic.TraceCursor
	rels      []niRel
	relSeq    []int64
	relRecv   []recvState

	// Scheduler storage. flits and credits are the event calendars of link
	// and credit traversal; actRouters/actNIs are the work lists Step
	// iterates and wakes parks idle NIs until their traffic process next
	// fires (all indexed by / holding node ids).
	flits      *wheel[flitEvent]
	credits    *wheel[creditEvent]
	actRouters activeSet
	actNIs     activeSet
	wakes      wakeHeap

	// msgFree pools delivered messages for reuse by the NIs.
	msgFree []*flow.Message
	// windows counts first deliveries per 2^windowShift-cycle bucket when
	// a schedule is active; the recovery-time metric reads it.
	windows []int64
}

// Network is a complete simulated interconnect: an arena and the state of
// the run in it.
type Network struct {
	arena

	cfg Config
	m   *topology.Mesh
	now int64

	// ff enables idle-cycle fast-forward (set inside Run): when the
	// network is globally idle, Step jumps now to the next NI wake
	// instead of ticking empty cycles, up to ffLimit (Run's cycle
	// budget). ffSkipped counts the cycles skipped this way; they are
	// simulated time (now advances over them) during which provably
	// nothing happened.
	ff        bool
	ffLimit   int64
	ffSkipped int64

	// recycle enables pooling of delivered Message objects for reuse by
	// the NIs; only inside Run, where no caller retains message pointers
	// past the arrival callback.
	recycle bool

	// ports caches m.NumPorts().
	ports int

	// nextMsg is the ID of the next generated message: IDs follow
	// generation order (cycle, then ascending node).
	nextMsg   flow.MessageID
	delivered int64 // total messages delivered
	onArrive  func(msg *flow.Message, now int64)

	// Fault state (dynfault.go). plan is the fault set of the epoch in
	// effect; it is written only between cycles (Step's preamble), so every
	// component sees one epoch for the whole cycle. sched is cfg.Faults when
	// it has transitions to apply (more than one epoch), nil otherwise.
	// epoch indexes the epoch in effect; transitions apply one epoch at a
	// time from 0, so it also counts them (ReconvergenceEpochs).
	plan  *fault.Plan
	sched *fault.Schedule
	epoch int
	// Loss counters of fault transitions and bind-point drops.
	droppedFlits int64
	droppedMsgs  int64
	// onLost fires, where the loss happens, for every permanently lost
	// message: purge victims and dead-destination drops without
	// reliability, abandoned (retry-exhausted) messages with it. Run counts
	// in-window losses toward its completion target so finite workloads
	// drain.
	onLost func(id flow.MessageID)

	// rel is the normalized reliability configuration; nextCtrl hands out
	// negative IDs to pure-ack control messages, so they never consume the
	// measured ID space. The counters are the layer's (reliability.go).
	rel       *Reliability
	nextCtrl  flow.MessageID
	retrans   int64
	dups      int64
	abandoned int64

	// notify is set when the configured selector consumes congestion
	// notifications: credits then piggyback the issuer's quantized
	// congestion level. Off (the default for every local heuristic) the
	// credit path is byte-identical to the pre-notification kernel.
	notify bool
}

// link is one direction of a wired channel: the node and input port that
// flits leaving through the owning (node, port) pair arrive at.
type link struct {
	node topology.NodeID
	port topology.Port
	ok   bool
}

// New builds and wires a network: storage allocated for cfg's shape, then
// Reset — the only initialiser there is.
func New(cfg Config) *Network {
	n := alloc(ShapeOf(cfg))
	n.Reset(cfg)
	return n
}

// alloc returns the storage of a network of shape s: every slab the shape
// sizes, and nothing in them. The result is not usable until Reset.
func alloc(s Shape) *Network {
	rc := router.Config{NumVCs: s.vcs, BufDepth: s.bufDepth, OutDepth: s.outDepth}
	// Cycle mode schedules events at most 1+LinkDelay cycles out. Event
	// mode reaches further: a worm transit's batched credit and deferred
	// VC release land up to BufDepth+4+LinkDelay cycles after the head's
	// arrival, and unpacking a worm schedules its trailing flits up to
	// BufDepth-1 cycles ahead (worms only exist for messages no longer
	// than the buffer depth).
	horizon := LinkDelay + 2
	if s.eventMode {
		horizon = LinkDelay + s.bufDepth + 6
	}
	a := arena{
		shape:      s,
		block:      router.AllocBlock(s.nodes, s.ports, rc),
		srcs:       traffic.AllocSources(s.nodes),
		nis:        make([]ni, s.nodes),
		fabrics:    make([]nodeFabric, s.nodes),
		links:      make([]link, s.nodes*s.ports),
		streams:    make([]stream, s.nodes*s.vcs),
		niCredits:  make([]int, s.nodes*s.vcs),
		cursors:    make([]traffic.TraceCursor, s.nodes),
		flits:      newWheel[flitEvent](horizon),
		credits:    newWheel[creditEvent](horizon),
		actRouters: newActiveSet(s.nodes),
		actNIs:     newActiveSet(s.nodes),
	}
	a.routers = a.block.Routers
	if s.reliabilityLayer {
		a.rels = make([]niRel, s.nodes)
		a.relSeq = make([]int64, s.nodes*s.nodes)
		a.relRecv = make([]recvState, s.nodes*s.nodes)
	}
	return &Network{arena: a}
}

// Shape returns the shape the network's storage was allocated for: Reset
// accepts exactly the configurations of this shape.
func (n *Network) Shape() Shape { return n.shape }

// Reset returns the network to the state New(cfg) builds, in place: cfg
// must have the shape the network was allocated for (it panics otherwise),
// and may differ from the previous configuration in everything else.
//
// One initialiser: Reset writes every field a run can read — the run state
// wholesale, every record of every slab, the growing buffers emptied with
// their capacity kept — and New is alloc followed by Reset, so there is no
// second constructor for it to drift from, and what ran in the network
// before (to completion, into its cycle budget, through a fault purge or a
// panic) is unobservable afterwards. TestResetEqualsNew holds it to that by
// comparing, by reflection, every reachable field of a reset network with a
// fresh one; a field added to Network, ni, router.Router or a source and
// left out of the reset fails there by itself.
func (n *Network) Reset(cfg Config) {
	if s := ShapeOf(cfg); s != n.shape {
		panic(fmt.Sprintf("network: storage of shape %+v reset to a configuration of shape %+v", n.shape, s))
	}
	m := cfg.Mesh
	if !cfg.Faults.Empty() {
		// The non-minimal up*/down* escape of fault-aware routing is
		// deadlock-free only under the stay-on-escape discipline; see
		// router.Config.EscapeCommit. A schedule needs it from cycle 0:
		// traffic in flight at a fault transition must already obey the
		// discipline the faulted epochs require.
		cfg.Router.EscapeCommit = true
	}
	// The two places a static plan differs from a schedule: its dead
	// routers stay dead, so they receive nothing — destinations that land
	// on one are redrawn (or silenced) — and generate nothing: their NIs
	// never wake. Under a timed schedule a dead node may heal, so its NI
	// keeps its traffic process running and traffic meeting the damage is
	// dropped where it meets it (see ni.tick).
	static := cfg.Faults.Epochs() == 1
	plan := cfg.Faults.Plan(0)
	if static && plan.NumRouters() > 0 && cfg.Pattern != nil {
		cfg.Pattern = traffic.FilterDest(cfg.Pattern, func(id topology.NodeID) bool {
			return !plan.NodeDead(id)
		})
	}
	*n = Network{
		arena:  n.arena,
		cfg:    cfg,
		m:      m,
		ports:  m.NumPorts(),
		notify: cfg.Selection.IsNotify(),
		plan:   plan,
	}
	if !static {
		n.sched = cfg.Faults
	}
	if cfg.Reliability != nil {
		rel := cfg.Reliability.withDefaults()
		n.rel = &rel
	}
	n.flits.reset()
	n.credits.reset()
	n.actRouters.reset()
	n.actNIs.reset()
	n.wakes.h = n.wakes.h[:0]
	clear(n.msgFree)
	n.msgFree = n.msgFree[:0]
	n.windows = n.windows[:0]

	n.block.Reset(m, cfg.Router, 0, cfg.Routes[0], cfg.Selection, cfg.Seed)
	for id := 0; id < m.N(); id++ {
		for p := 0; p < n.ports; p++ {
			// Every link is wired, failed or not: liveness is enforced by
			// dead-port gating (and, under a schedule, the transition
			// purge), so an epoch that heals a link needs no rewiring.
			l := link{}
			if nb, ok := m.Neighbor(topology.NodeID(id), topology.Port(p)); ok {
				l = link{node: nb, port: topology.Opposite(topology.Port(p)), ok: true}
			}
			n.links[id*n.ports+p] = l
		}
	}
	n.resetNIs()
	for id := range n.fabrics {
		node := topology.NodeID(id)
		f := &n.fabrics[id]
		*f = nodeFabric{
			n:       n,
			node:    node,
			links:   n.links[id*n.ports : (id+1)*n.ports],
			flits:   n.flits,
			credits: n.credits,
			notify:  n.notify,
			ni:      &n.nis[id],
		}
		n.routers[id].SetFabric(f)
		n.routers[id].SetDeadPorts(n.deadPortMask(node))
	}
	// Every NI starts idle; park each on the wake heap at its first
	// arrival (nodes whose process never fires stay dormant forever).
	// NIs on a static plan's dead routers never register: they inject
	// nothing. Under a schedule every NI registers — a node dead now may
	// heal, and its traffic process must keep consuming its due events
	// meanwhile.
	for id := range n.nis {
		if static && plan.NodeDead(topology.NodeID(id)) {
			continue
		}
		x := &n.nis[id]
		if at, ok := x.nextWake(); ok {
			n.wakes.push(wake{at: at, node: int32(id)})
		}
	}
}

// Park drops every reference the network holds into its configuration —
// mesh, tables, pattern, trace and faults — so an idle network pins nothing
// of a structure its owner may since have forgotten. Only the storage stays;
// the network is unusable until the next Reset.
func (n *Network) Park() {
	*n = Network{arena: n.arena}
	n.block.Park()
	clear(n.cursors)
}

// Bytes returns the size of the network's storage: the slabs its shape
// sizes plus whatever the growing buffers have grown to.
func (n *Network) Bytes() int {
	b := n.block.Bytes() + n.srcs.Bytes() +
		slabBytes(n.nis) + slabBytes(n.fabrics) + slabBytes(n.links) +
		slabBytes(n.streams) + slabBytes(n.niCredits) + slabBytes(n.cursors) +
		slabBytes(n.rels) + slabBytes(n.relSeq) + slabBytes(n.relRecv) +
		n.flits.bytes() + n.credits.bytes() + slabBytes(n.wakes.h) +
		slabBytes(n.msgFree) + slabBytes(n.windows)
	for i := range n.nis {
		b += slabBytes(n.nis[i].queue)
	}
	return b
}

// nodeFabric is one router's surroundings (router.Fabric): the links
// leaving its node, the network's wheels, and its NI. What the per-flit
// methods read is in the value itself, so a send or a credit loads the
// fabric, the link and the wheel and nothing else; n serves the
// congestion sample.
type nodeFabric struct {
	n       *Network
	node    topology.NodeID
	links   []link              // this node's row of Network.links, indexed by port
	flits   *wheel[flitEvent]   // n.flits
	credits *wheel[creditEvent] // n.credits
	notify  bool                // n.notify
	ni      *ni
}

// Send routes a flit leaving the node through port p onto the wire; it
// arrives (is latched) at the neighbor after the output register plus the
// link delay. In event mode worm marks it as the head of an entire worm
// crossing the wire as one event (see router.Arrive).
func (f *nodeFabric) Send(p topology.Port, v flow.VCID, fl flow.Flit, worm bool, now int64) {
	l := f.links[p]
	if !l.ok {
		panic(fmt.Sprintf("network: node %d sent out port %d with no link", f.node, p))
	}
	f.flits.schedule(now+hop, flitEvent{node: l.node, port: l.port, vc: v, fl: fl, worm: worm})
}

// Credit returns count freed input-buffer slots upstream in one event: to
// the neighbor's output VC, or to the local NI for the injection port.
func (f *nodeFabric) Credit(p topology.Port, v flow.VCID, count int, now int64) {
	at := now + hop
	if p == topology.PortLocal {
		f.credits.schedule(at, creditEvent{kind: creditToNI, node: f.node, vc: v, n: int32(count)})
		return
	}
	l := f.links[p]
	if !l.ok {
		panic(fmt.Sprintf("network: credit out port %d with no link", p))
	}
	e := creditEvent{node: l.node, port: l.port, vc: v, n: int32(count)}
	if f.notify {
		// Sample the issuing router's congestion at credit time.
		e.cong = f.n.routers[f.node].CongestionLevel()
	}
	f.credits.schedule(at, e)
}

// Release schedules an event-mode VC release: an express transit frees its
// claimed output VC the cycle after its tail leaves the output stage.
func (f *nodeFabric) Release(p topology.Port, v flow.VCID, at int64) {
	f.credits.schedule(at, creditEvent{kind: creditRelease, node: f.node, port: p, vc: v})
}

// Deliver hands ejected flits to the node's NI.
func (f *nodeFabric) Deliver(fl flow.Flit, now int64) { f.ni.deliver(fl, now) }

// Step advances the network one cycle: deliver due events, let active NIs
// generate and inject, then tick active routers. Idle components are
// skipped entirely — a router registers on the active set when a flit is
// latched into it and deregisters when its buffers drain; an NI
// deregisters when its source queue and injection streams empty, parking
// on the wake heap until its traffic process next fires. Skipped
// components would have done no observable work (an idle router's Tick
// returns immediately; an idle NI's tick only polls its injector), so the
// active-set kernel is cycle-for-cycle identical to ticking everything.
//
// Everything order-sensitive happens where it happens, in that execution
// order: a message takes its ID when its NI generates it, an arrival or a
// loss reaches the observers (and the message returns to the pool) at the
// call that completes it. When fast-forward is armed (inside Run) and the
// network is globally idle, Step first jumps now to the next NI wake: the
// skipped cycles are simulated time during which provably nothing could
// happen, so the jump is indistinguishable from ticking them one by one.
func (n *Network) Step() { n.step() }

// step is Step, reporting whether the cycle began idle: nothing in flight,
// whether or not fast-forward then jumped. Run's deadlock guard restarts on
// such a cycle.
func (n *Network) step() (idle bool) {
	now := n.now
	idle = n.idle()
	if n.ff && idle {
		target := n.nextWakeAt()
		if target < 0 || target >= n.ffLimit {
			// The next wake (if any) lies at or beyond the cycle budget,
			// so the unskipped kernel would tick empty cycles up to the
			// budget and stop without ever processing it: advance
			// straight there so the Run loop's guard trips at exactly
			// the same cycle.
			if n.ffLimit > now {
				n.ffSkipped += n.ffLimit - now
				n.now = n.ffLimit
			} else {
				n.now = now + 1
			}
			return idle
		}
		if target > now {
			n.ffSkipped += target - now
			now = target
		}
	}
	// n.now is the executing cycle for the whole step: observers and the
	// delivery windows read it, whatever (possibly future) cycle an express
	// ejection stamps on the message.
	n.now = now
	// Apply fault-schedule transitions due at or before this cycle before
	// anything steps, so every component observes the same epoch for the
	// whole cycle. The fast-forward jump above is safe to cross
	// transitions: it only fires when the network is provably empty, and
	// advanceEpochs replays every skipped transition here in order.
	if n.sched != nil {
		n.advanceEpochs(now)
	}
	n.stepCycle(now)
	n.now = now + 1
	return idle
}

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// SkippedCycles returns how many cycles idle-cycle fast-forward jumped
// over (simulated but not individually executed). Zero outside Run.
func (n *Network) SkippedCycles() int64 { return n.ffSkipped }

// Delivered returns the number of fully delivered messages.
func (n *Network) Delivered() int64 { return n.delivered }

// Router exposes a router for inspection in tests.
func (n *Network) Router(id topology.NodeID) *router.Router { return &n.routers[id] }

// traceHorizon returns the last injection time of the configured trace.
func (n *Network) traceHorizon() int64 {
	var last int64
	for i := range n.nis {
		if x := &n.nis[i]; x.trace != nil {
			for _, tm := range x.trace.Due(1 << 62) {
				if tm.At > last {
					last = tm.At
				}
			}
			// Due consumed the cursor; rewind it for the actual run.
			*x.trace = *n.cfg.Trace.Cursor(x.node)
		}
	}
	return last
}

// satLatency is the latency guard, in cycles: a run is saturated once the
// running mean latency of its measured messages exceeds it (section 2.2's
// "Sat.").
const satLatency = 5000

// progressGuard guards a run against protocol deadlock: when no message is
// delivered or lost for this many cycles while traffic is in flight, the
// run aborts. Idle cycles, stepped or fast-forwarded, restart the count: a
// quiet stretch between messages is no deadlock.
const progressGuard = 50000

// CycleBudget is the cycle budget Run derives when RunParams.MaxCycles is
// 0 on a generated workload: eight times the cycles the network takes to
// offer messages at aggregate messages a cycle, plus 50 000. ok is false
// when no budget derives: aggregate is not positive, or the budget would
// overflow an int64.
func CycleBudget(aggregate float64, messages int) (budget int64, ok bool) {
	need := float64(messages) / aggregate
	if !(aggregate > 0 && need*8 < 1<<62) {
		return 0, false
	}
	return int64(need*8) + 50000, true
}

// RunParams controls one measured simulation (section 2.2's methodology).
type RunParams struct {
	// WarmupMessages are generated and delivered but not measured.
	WarmupMessages int
	// MeasureMessages is the number of messages statistics cover.
	MeasureMessages int
	// MaxCycles aborts the run (marking saturation) when exceeded; 0
	// derives a budget from the offered load.
	MaxCycles int64
	// NoFastForward disables idle-cycle fast-forward for this run, so
	// every cycle is executed individually. Results are bit-identical
	// either way (the fast-forward only skips cycles in which provably
	// nothing happens); the knob exists for regression tests and
	// diagnostics.
	NoFastForward bool
}

// Run executes the measurement loop: inject continuously, measure messages
// [WarmupMessages, WarmupMessages+MeasureMessages), and stop when every
// measured message has been delivered or a saturation guard trips.
func (n *Network) Run(p RunParams) *stats.Run {
	if p.MeasureMessages <= 0 {
		panic("network: MeasureMessages must be positive")
	}
	if p.MaxCycles == 0 {
		if n.cfg.Trace != nil {
			p.MaxCycles = n.traceHorizon() + 200000
		} else {
			budget, ok := CycleBudget(n.cfg.MsgRate*float64(n.m.N()), p.WarmupMessages+p.MeasureMessages)
			if !ok {
				panic("network: no cycle budget derives from the injection rate; set MaxCycles")
			}
			p.MaxCycles = budget
		}
	}

	// Latency confidence intervals come from ten batches of the measurement.
	run := stats.NewRun(n.m.N(), int64(max(p.MeasureMessages/10, 1)))
	lo := flow.MessageID(p.WarmupMessages)
	hi := lo + flow.MessageID(p.MeasureMessages)
	measuredDone := 0
	var firstDeliver, lastDeliver int64 = -1, -1
	lastProgress := n.now

	// Inside Run no caller can retain message pointers past the arrival
	// callback, so delivered messages are recycled through the pool for
	// the whole warmup+measure loop.
	n.recycle = true
	defer func() { n.recycle = false }()

	// Arm idle-cycle fast-forward (bounded by the cycle budget) for the
	// duration of the loop. It is an execution strategy, not semantics:
	// results are bit-identical with it off.
	if !p.NoFastForward {
		n.ff = true
		n.ffLimit = p.MaxCycles
		defer func() { n.ff = false }()
	}
	// An onArrive observer installed before Run (a test seam) keeps
	// firing for every delivery; Run's measurement hook chains after it
	// and the observer is restored on exit.
	prev := n.onArrive
	n.onArrive = func(msg *flow.Message, now int64) {
		if prev != nil {
			prev(msg, now)
		}
		lastProgress = now
		if msg.ID < lo || msg.ID >= hi {
			return
		}
		run.Record(
			float64(msg.ArriveTime-msg.CreateTime),
			float64(msg.ArriveTime-msg.InjectTime),
			msg.Hops,
			msg.Length,
		)
		measuredDone++
		if firstDeliver < 0 {
			firstDeliver = now
		}
		lastDeliver = now
	}
	defer func() { n.onArrive = prev }()

	// A permanently lost message (dropped at a fault transition without
	// reliability, or abandoned after exhausting retransmissions with it)
	// counts toward completion like a delivery — it will never arrive, so
	// waiting for it would spin the loop into the cycle budget — but
	// records no statistics: Latency.N() over MeasureMessages is the
	// delivered fraction.
	prevLost := n.onLost
	n.onLost = func(id flow.MessageID) {
		if prevLost != nil {
			prevLost(id)
		}
		lastProgress = n.now
		if id >= lo && id < hi {
			measuredDone++
		}
	}
	defer func() { n.onLost = prevLost }()

	for measuredDone < p.MeasureMessages {
		if n.step() {
			lastProgress = n.now
		}
		if n.now >= p.MaxCycles {
			run.Saturated = true
			run.SatReason = "cycle budget exhausted"
			break
		}
		if run.Latency.N() >= int64(p.MeasureMessages/10+1) && run.Latency.Mean() > satLatency {
			run.Saturated = true
			run.SatReason = "latency above saturation threshold"
			break
		}
		if n.now-lastProgress > progressGuard && !(n.actRouters.empty() && n.actNIs.empty()) {
			run.Saturated = true
			run.SatReason = "no delivery progress (possible deadlock)"
			break
		}
	}
	if firstDeliver >= 0 && lastDeliver > firstDeliver {
		run.Cycles = lastDeliver - firstDeliver
	} else {
		run.Cycles = n.now
	}
	return run
}
