// Package router implements the paper's pipelined wormhole router models:
// PROUD, the five-stage baseline (input/decode, table lookup, selection+
// arbitration, crossbar, VC-mux/output), and LA-PROUD, the four-stage
// look-ahead variant in which table lookup runs concurrently with
// selection and arbitration because the header flit already carries the
// candidate set valid at this router (section 3).
//
// The model is cycle-driven and flit-accurate. Each stage takes one cycle:
// header stages advance a readyAt stamp, and what the SA, input and crossbar
// stages latch in a cycle is marked fresh for that cycle, so intra-cycle
// processing order can never move a flit through two stages in one cycle.
// Head flits claim an output VC in the SA stage and every flit then
// competes per cycle for the crossbar (separable input-then-output
// round-robin allocation) and for the physical link (round-robin VC
// multiplexer, gated by credit-based flow control). Tail flits release
// input-side and output-side VC state as they pass, implementing wormhole
// semantics.
//
// Host time follows the flits that move, not the VCs that wait. No stage
// scans for requesters: the crossbar's requests per output port, the
// output multiplexer's (boxed flits with credit) and VC allocation's (free
// output VCs) are bit masks kept current at the events that change them —
// an allocation, an arrival into a drained buffer, a box filling or
// draining, a credit, a release. The crossbar and output stages are
// therefore O(ports with a request) per cycle, a stalled header's retry is
// O(candidates), and a worm blocked on a full box or an exhausted credit
// count costs nothing until the event that unblocks it. The Router field
// comments say where each mask is maintained; a fault purge is the one
// place that rebuilds requests by scanning.
package router

import (
	"fmt"
	"math/bits"
	"unsafe"

	"lapses/internal/arbiter"
	"lapses/internal/flow"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
)

// Config carries the microarchitectural parameters of one router. The zero
// value is not usable. Nothing here checks it: core.Run builds every router
// from Table 2's constants (core.VCs, core.BufDepth, core.OutDepth,
// core.ResvVCs) and a configuration core.Config.Validate has accepted, and
// the geometry is a parameter only so that the router's and the network's
// own tests can vary it (NumVCs from 1 to 8, ports x NumVCs at most
// MaxInputVCs, depths at least 1, ResvVCs below the adaptive VCs).
type Config struct {
	// NumVCs is the number of virtual channels per physical channel.
	NumVCs int
	// BufDepth is the input buffer depth per VC, in flits.
	BufDepth int
	// OutDepth is the output buffer depth per VC, in flits (the "Xbar
	// route, buffering" stage of Fig. 1).
	OutDepth int
	// LookAhead selects the 4-stage LA-PROUD pipeline; false is the
	// 5-stage PROUD baseline.
	LookAhead bool
	// ResvVCs reserves the highest-numbered adaptive VCs of every physical
	// channel for high-class (QoS) messages: class-0 traffic may not claim
	// them. Escape VCs are the lowest-numbered VCs and are never reserved,
	// so every class keeps a deadlock-free path. 0 disables reservation.
	ResvVCs int
	// EscapeCommit enforces the stay-on-escape discipline: once a message
	// claims an escape VC it uses only escape VCs for the rest of its
	// journey. Duato's protocol normally lets messages return to adaptive
	// VCs, which is safe when the escape subfunction is minimal
	// (dimension order): the escape extended dependency graph stays
	// acyclic. The fault-aware up*/down* escape is non-minimal, and a
	// message hopping escape -> adaptive -> escape can close a dependency
	// cycle through the up/down order, so degraded networks run with the
	// commit discipline on (the network enables it whenever a fault plan
	// is present). Healthy configurations leave it off and are
	// bit-identical to the paper's protocol.
	EscapeCommit bool
}

// Fabric is everything outside one router that the router acts on: the
// links leaving it, the credit channels back upstream and the local
// network interface. The network hands every router its own Fabric (one
// small value per node, all in one slab), so a call needs no "from"
// argument and costs one indirect call, like the closures it replaced.
type Fabric interface {
	// Send transmits a flit onto the link leaving through port at cycle
	// now, tagged with the virtual channel it travels on (the downstream
	// input VC). The fabric schedules its arrival at the neighbor. With
	// worm set, fl is the head of an entire express worm crossing the wire
	// as one event: the remaining flits of fl.Msg follow at link rate (one
	// per cycle) behind it.
	Send(port topology.Port, vc flow.VCID, fl flow.Flit, worm bool, now int64)
	// Credit returns count credits upstream for the input buffer slots
	// freed on (port, vc), in one event due at cycle now: one per flit on
	// the pipeline, a whole run on the express path. For the local port
	// the credits go to the node's NI.
	Credit(port topology.Port, vc flow.VCID, count int, now int64)
	// Deliver hands an ejected flit to the local network interface.
	Deliver(fl flow.Flit, now int64)
	// Release schedules the release of the output VC an express transit
	// claimed, at cycle at (the cycle after its tail leaves the output
	// stage). The fabric must call ReleaseExpress exactly then.
	Release(port topology.Port, vc flow.VCID, at int64)
}

// input VC pipeline states.
type vcPhase uint8

const (
	phaseIdle vcPhase = iota
	// phaseRouting: head flit awaiting the table-lookup (RC) stage
	// (PROUD only; LA headers skip straight to phaseWaitSA).
	phaseRouting
	// phaseWaitSA: head flit awaiting selection + arbitration.
	phaseWaitSA
	// phaseActive: the worm holds an output VC; flits stream.
	phaseActive
	// phaseExpress: the worm transits this router flit by flit on the
	// event-driven express path (see Arrive): every flit is forwarded the
	// moment its arrival event fires, with send and credit times computed
	// from the pipeline constants instead of emulated stage by stage.
	// Express flits never enter the input buffer, so the VC holds no
	// storage while in this phase.
	phaseExpress
)

// MaxInputVCs bounds ports x VCs per router: the work and request masks
// and the crossbar arbiter (arbiter.MakeRoundRobin) index input VCs in one
// 64-bit word.
const MaxInputVCs = 64

// expressOwner marks an output VC claimed by an express worm. It must be
// non-negative (owner < 0 means free) and distinct from every
// real input-VC index (those are < 64, bounded by the work masks).
const expressOwner int32 = 1 << 30

// inputVC is the state of one input virtual channel.
type inputVC struct {
	buf     fifo
	phase   vcPhase
	readyAt int64
	route   flow.RouteSet
	outPort topology.Port
	outIdx  int32 // index of the claimed output VC in Router.out
	// msg is the message the VC is processing while phase != phaseIdle.
	// The pipeline itself reads headers from the buffer; this pointer
	// exists for the fault purge, which must identify the owner of claims
	// and pipeline state after the flits that carried it are gone.
	msg *flow.Message
}

// outputVC is the state of one output virtual channel.
type outputVC struct {
	owner   int32 // input VC index holding this VC; -1 when free
	credits int   // free slots in the downstream input buffer
	box     outFifo
}

// portState is everything the router keeps per output port, in one record
// (one cache line) so a stage working on a port loads its arbiters,
// counters and express window together.
type portState struct {
	// The counters the path-selection heuristics read.
	useCount uint64
	lastUsed int64
	// [linkBusyFrom, linkBusyUntil] is the send-cycle window an admitted
	// express transit (worm event or per-flit) has reserved the port's link
	// for, and expressOut counts the per-flit express worms currently
	// streaming through the port. Together they serialize express transits
	// per physical channel: admission requires the candidate port to be
	// free of both, so two express worms never overdrive one link, while
	// worms bound for different ports of the same router transit
	// concurrently. Buffered traffic stalls in the output stage during the
	// reserved window (stageOUT), so express and pipelined flits share a
	// wire at one flit per cycle either way.
	linkBusyFrom  int64
	linkBusyUntil int64
	xbArb         arbiter.RoundRobin // over all input VC indices
	muxAr         arbiter.RoundRobin // over the port's output VCs
	vcArb         arbiter.RoundRobin // over the port's VCs, for allocation
	busyVCs       int8
	expressOut    int8
	// remoteCong is the latest quantized congestion level the downstream
	// router piggybacked on a credit (see NoteCongestion); it stays 0
	// unless a notification-aware selector is configured.
	remoteCong uint8
}

// Router is one PROUD / LA-PROUD router instance.
type Router struct {
	id   topology.NodeID
	mesh *topology.Mesh
	cfg  Config
	// routes is the structure's routing, shared by every router: its
	// Lookup at this router is the table lookup, at a neighbor the
	// look-ahead one.
	routes *table.Routes
	// sel is the path-selection policy; seed keys its Random draws.
	sel  selection.Kind
	seed int64
	wrap bool

	in    []inputVC
	out   []outputVC
	port  []portState // per output port
	saRot int         // rotating start for SA scans

	// Work masks let each pipeline stage visit only the VCs with work
	// instead of scanning every input/output VC each cycle. Bit i of
	// actRC/actSA is set when input VC i is in phaseRouting/phaseWaitSA;
	// bit j of boxed when output VC j's box is nonempty, of boxFull when it
	// is at capacity. Indices fit in 64 bits because the crossbar arbiter
	// (MakeRoundRobin over ports*VCs) already caps the router at 64 input
	// VCs.
	actRC   uint64
	actSA   uint64
	boxed   uint64
	boxFull uint64

	// Request state. The crossbar, the output mux and VC allocation never
	// scan for requesters: each mask below is kept current at the events
	// that change it, so a blocked VC costs nothing per cycle and a stage is
	// O(ports with a request).
	//
	// xbReq[p] holds the input VCs requesting the crossbar toward output
	// port p: phaseActive on a VC of p, a flit buffered, the box not full.
	// xbPorts is the set of ports with any such request. Raised by
	// tryAllocate, by EnqueueFlit refilling a drained buffer, and by
	// stageOUT popping the full box a worm was parked on; withdrawn by
	// traverse when the box fills, the buffer drains or the tail passes;
	// rebuilt by PurgeMessages.
	xbReq   []uint64
	xbPorts uint64
	// fresh is the subset of requests raised during cycle freshAt by
	// something latched in that cycle — a header allocated, or the only
	// buffered flit arriving — which the crossbar may not serve before
	// freshAt+1. The stamp makes a mask left over from an earlier cycle
	// read as empty without anyone clearing it.
	fresh   uint64
	freshAt int64
	// hasCredit holds the output VCs the mux may send from: credits > 0,
	// or on the local port, whose sink always has room. Set by
	// AcceptCredits, cleared where a send takes the last credit (stageOUT,
	// transit), overwritten by SetCredits.
	hasCredit uint64
	// freeOut holds the unowned output VCs: cleared by claimVC, set by
	// releaseVC.
	freeOut uint64

	// portOf and vcBase map a VC index (inIdx) back to its physical port
	// and the first index of that port's VC group, replacing the per-flit
	// divisions the hot stages would otherwise pay. They depend only on
	// the port and VC counts, so every router of a block shares one pair.
	portOf []int8
	vcBase []int16

	fab Fabric

	// occupancy tracks buffered flits for quiescence checks.
	occupancy int
	// resvMask is the set of adaptive VCs reserved for high-class
	// messages (the top Config.ResvVCs ids); zero when reservation is off.
	resvMask flow.VCMask

	// deadPorts is the set of output ports whose link is currently failed
	// (bit p set). The SA stage and express admission never choose a dead
	// candidate, so a header routed by a pre-transition table one hop
	// upstream stalls here until the epoch's Reroute refreshes it rather
	// than sending flits into a void. Always zero without a fault
	// schedule, so healthy runs are bit-identical.
	deadPorts uint32
}

// Block is the routers of nodes base, base+1, ... in one arena: the routers
// are one value slab, and every per-router slice (input VCs, output VCs,
// port records, buffer runs) is a window of a block-wide slab, so a network
// of any size costs a fixed number of allocations and neighbouring routers'
// state is contiguous.
//
// One initialiser: AllocBlock only sizes the slabs — by the router count,
// the port count, Config.NumVCs and the seed ring of Config.BufDepth — and
// Reset writes every field of every record in them; NewBlock is the two in a
// row. A block that has been reset is therefore field for field the block
// NewBlock would have built, whatever ran in it before, and a field added to
// Router, inputVC, outputVC or portState cannot be initialised anywhere but
// in Reset (network's TestResetEqualsNew compares the two by reflection).
type Block struct {
	// Routers holds the router of node base+i at index i.
	Routers []Router

	in     []inputVC
	out    []outputVC
	port   []portState
	runs   []run
	xbReq  []uint64
	portOf []int8
	vcBase []int16
	// np, vcs and seed are the shape the slabs were sized for: ports per
	// router, VCs per port, and runs per input buffer (buffers start at two
	// runs and grow on demand; see fifo).
	np, vcs, seed int
}

func seedRuns(cfg Config) int { return min(cfg.BufDepth, 2) }

// AllocBlock returns the storage of n routers of the given port count under
// cfg. It is not usable until Reset.
func AllocBlock(n, ports int, cfg Config) *Block {
	nvc, seed := ports*cfg.NumVCs, seedRuns(cfg)
	return &Block{
		Routers: make([]Router, n),
		in:      make([]inputVC, n*nvc),
		out:     make([]outputVC, n*nvc),
		port:    make([]portState, n*ports),
		runs:    make([]run, n*nvc*seed),
		xbReq:   make([]uint64, n*ports),
		portOf:  make([]int8, nvc),
		vcBase:  make([]int16, nvc),
		np:      ports,
		vcs:     cfg.NumVCs,
		seed:    seed,
	}
}

// NewBlock constructs the routers of nodes base, ..., base+n-1, every one
// routing by routes and selecting by policy sel, whose Random draws seed
// keys. Callers wire each router with SetFabric before its first Tick.
func NewBlock(m *topology.Mesh, cfg Config, base topology.NodeID, n int, routes *table.Routes, sel selection.Kind, seed int64) *Block {
	b := AllocBlock(n, m.NumPorts(), cfg)
	b.Reset(m, cfg, base, routes, sel, seed)
	return b
}

// Reset returns the block to its constructed state under a new
// configuration: idle pipelines, empty buffers re-carved from the seed-run
// slab (rings a previous run grew are dropped), full credits, every output VC
// free, request and work masks empty, arbiters and SA rotation at their
// origin, no dead ports, no fabric. It panics when the configuration does not
// have the shape the block was allocated for.
func (b *Block) Reset(m *topology.Mesh, cfg Config, base topology.NodeID, routes *table.Routes, sel selection.Kind, seed int64) {
	np, nvc, runs := b.np, b.np*b.vcs, b.seed
	if m.NumPorts() != np || cfg.NumVCs != b.vcs || seedRuns(cfg) != runs {
		panic(fmt.Sprintf("router: block of %d ports, %d VCs, %d seed runs reset to %d ports, %d VCs, %d seed runs",
			np, b.vcs, runs, m.NumPorts(), cfg.NumVCs, seedRuns(cfg)))
	}
	var resv flow.VCMask
	if cfg.ResvVCs > 0 {
		resv = flow.MaskAll(cfg.NumVCs) &^ flow.MaskAll(cfg.NumVCs-cfg.ResvVCs)
	}
	for i := range b.portOf {
		b.portOf[i] = int8(i / cfg.NumVCs)
		b.vcBase[i] = int16(i / cfg.NumVCs * cfg.NumVCs)
	}
	clear(b.runs)
	for i := range b.in {
		b.in[i] = inputVC{}
		b.in[i].buf.init(b.runs[i*runs:(i+1)*runs], cfg.BufDepth)
	}
	for i := range b.out {
		b.out[i] = outputVC{owner: -1, credits: cfg.BufDepth}
		b.out[i].box.init(cfg.OutDepth)
	}
	xb, vc := arbiter.MakeRoundRobin(nvc), arbiter.MakeRoundRobin(cfg.NumVCs)
	for i := range b.port {
		b.port[i] = portState{lastUsed: -1, linkBusyFrom: -1, linkBusyUntil: -1, xbArb: xb, muxAr: vc, vcArb: vc}
	}
	clear(b.xbReq)
	for i := range b.Routers {
		b.Routers[i] = Router{
			id:        base + topology.NodeID(i),
			mesh:      m,
			cfg:       cfg,
			routes:    routes,
			sel:       sel,
			seed:      seed,
			wrap:      m.Wrap(),
			in:        b.in[i*nvc : (i+1)*nvc],
			out:       b.out[i*nvc : (i+1)*nvc],
			port:      b.port[i*np : (i+1)*np],
			xbReq:     b.xbReq[i*np : (i+1)*np],
			hasCredit: 1<<nvc - 1,
			freeOut:   1<<nvc - 1,
			portOf:    b.portOf,
			vcBase:    b.vcBase,
			resvMask:  resv,
		}
	}
}

// Park drops the block's references to what a configuration lent it — mesh,
// routes, fabrics — so an idle block pins none of them. The block is
// unusable until the next Reset.
func (b *Block) Park() {
	for i := range b.Routers {
		r := &b.Routers[i]
		r.mesh, r.routes, r.fab = nil, nil, nil
	}
}

// Bytes returns the size of the slabs.
func (b *Block) Bytes() int {
	return slabBytes(b.Routers) + slabBytes(b.in) + slabBytes(b.out) + slabBytes(b.port) +
		slabBytes(b.runs) + slabBytes(b.xbReq) + slabBytes(b.portOf) + slabBytes(b.vcBase)
}

func slabBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// New constructs a single router for node id: a block of one.
func New(id topology.NodeID, m *topology.Mesh, cfg Config, routes *table.Routes, sel selection.Kind, seed int64) *Router {
	return &NewBlock(m, cfg, id, 1, routes, sel, seed).Routers[0]
}

// SetFabric wires the router to its surroundings.
func (r *Router) SetFabric(f Fabric) { r.fab = f }

// ID returns the router's node.
func (r *Router) ID() topology.NodeID { return r.id }

func (r *Router) inIdx(p topology.Port, v flow.VCID) int {
	return int(p)*r.cfg.NumVCs + int(v)
}

// EnqueueFlit latches a flit arriving on input (port, vc) at the start of
// cycle now (the IB stage runs during now). The caller must respect
// credit-based flow control; overflowing the buffer panics.
func (r *Router) EnqueueFlit(p topology.Port, v flow.VCID, fl flow.Flit, now int64) {
	idx := r.inIdx(p, v)
	ivc := &r.in[idx]
	if ivc.buf.full() {
		panic(fmt.Sprintf("router %d: input buffer overflow on port %d vc %d (credit protocol violated)", r.id, p, v))
	}
	ivc.buf.push(fl)
	r.occupancy++
	if ivc.phase == phaseIdle && fl.Type.IsHead() {
		r.startHeader(idx, ivc, fl, now)
	} else if ivc.phase == phaseActive && ivc.buf.len() == 1 && r.boxFull>>ivc.outIdx&1 == 0 {
		// The streaming worm's buffer had drained; this flit spends the
		// cycle in the input latch.
		r.requestFresh(idx, ivc.outPort, now)
	}
}

// request raises input VC idx's crossbar request toward output port p.
func (r *Router) request(idx int, p topology.Port) {
	r.xbReq[p] |= 1 << idx
	r.xbPorts |= 1 << p
}

// requestFresh raises a request the crossbar may serve from cycle now+1
// on (see Router.fresh).
func (r *Router) requestFresh(idx int, p topology.Port, now int64) {
	r.request(idx, p)
	if r.freshAt != now {
		r.freshAt, r.fresh = now, 0
	}
	r.fresh |= 1 << idx
}

// withdraw drops input VC idx's crossbar request toward output port p.
func (r *Router) withdraw(idx int, p topology.Port) {
	r.xbReq[p] &^= 1 << idx
	if r.xbReq[p] == 0 {
		r.xbPorts &^= 1 << p
	}
}

// releaseVC returns output VC j to the free pool.
func (r *Router) releaseVC(j int) {
	r.out[j].owner = -1
	r.freeOut |= 1 << j
	r.port[r.portOf[j]].busyVCs--
}

// startHeader moves an idle input VC into the routing pipeline for the
// header now at the front of its buffer.
func (r *Router) startHeader(idx int, ivc *inputVC, fl flow.Flit, now int64) {
	ivc.msg = fl.Msg
	if r.cfg.LookAhead {
		// The header carries the candidates valid here; lookup has
		// already happened upstream, concurrently with arbitration.
		ivc.route = fl.Msg.Route
		ivc.phase = phaseWaitSA
		r.actSA |= 1 << idx
	} else {
		ivc.phase = phaseRouting
		r.actRC |= 1 << idx
	}
	ivc.readyAt = now + 1
}

// Arrive is the event-mode arrival entry point: fl latches on input (port,
// vc) at cycle now; with worm set it is the head of an entire message whose
// remaining flits follow at link rate behind it on the same wire. It
// reports whether the express path absorbed the arrival — forwarded (or
// delivered) it immediately with send and credit times computed from the
// pipeline's timing constants (see transit) — in which case nothing enters
// an input buffer and the caller must not count it toward occupancy. When
// the express path cannot take the arrival, the flit goes through
// EnqueueFlit and Arrive returns false; that is byte-for-byte the
// cycle-accurate path, so a router carrying any buffered traffic behaves
// exactly as in cycle mode. The caller unpacks a refused worm: its trailing
// flits arrive as per-flit events at their wire cadence, which cannot
// overflow the input buffer because the upstream sender held credits for
// the whole message before emitting the worm.
//
// A head is admitted (expressAllocate) into a router with empty buffers
// when the SA decision, taken at arrival time, finds an output VC holding
// credits for the whole message on a link free of other express transits —
// so an express hop makes the routing decision the pipelined hop would have
// made from an empty router, and once admitted it never stalls
// mid-transit. An admitted worm transits in O(1): one worm event to the
// next hop (or one local delivery of the tail), one batched upstream
// credit, one deferred release of the claimed output VC. An admitted lone
// head puts its input VC in phaseExpress, and each flit behind it (per-VC
// worm serialization guarantees no other head arrives before the tail) is
// forwarded by its own arrival event.
func (r *Router) Arrive(p topology.Port, v flow.VCID, fl flow.Flit, worm bool, now int64) bool {
	idx := r.inIdx(p, v)
	ivc := &r.in[idx]
	if ivc.phase == phaseExpress {
		r.transit(idx, int(ivc.outIdx), fl, 1, now)
		if fl.Type.IsTail() {
			// The per-flit transit ends: the input VC returns to idle
			// (transit released the output VC, as for a worm).
			ivc.phase = phaseIdle
			ivc.route = flow.RouteSet{}
			ivc.msg = nil
			if ivc.outPort != topology.PortLocal {
				r.port[ivc.outPort].expressOut--
			}
		}
		return true
	}
	if fl.Type.IsHead() && ivc.phase == phaseIdle && r.occupancy == 0 {
		msg := fl.Msg
		if port, vc, ok := r.expressAllocate(msg, now); ok {
			n := 1
			if worm {
				n = msg.Length
			}
			j := r.inIdx(port, vc)
			if n < msg.Length {
				// The flits behind a lone head find their way here.
				ivc.outPort = port
				ivc.outIdx = int32(j)
				ivc.phase = phaseExpress
				ivc.msg = msg
				if port != topology.PortLocal {
					r.port[port].expressOut++
				}
			}
			r.transit(idx, j, fl, n, now)
			return true
		}
	}
	r.EnqueueFlit(p, v, fl, now)
	return false
}

// ReleaseExpress frees the output VC an express transit claimed, at the
// cycle transit scheduled (the tail has left the output stage; the credits
// the worm consumed return separately from downstream).
func (r *Router) ReleaseExpress(p topology.Port, v flow.VCID) {
	j := r.inIdx(p, v)
	if r.out[j].owner != expressOwner {
		panic(fmt.Sprintf("router %d: express release of port %d vc %d not owned by an express transit", r.id, p, v))
	}
	r.releaseVC(j)
}

// expressOffsets returns the express path's timing constants: a flit
// latched at cycle t into an otherwise-empty LA-PROUD router frees its
// buffer slot (crossbar) at t+2 and leaves the output stage for the link at
// t+3; PROUD pays one more cycle for the table-lookup stage (t+3, t+4).
func (r *Router) expressOffsets() (offC, offS int64) {
	if r.cfg.LookAhead {
		return 2, 3
	}
	return 3, 4
}

// expressAllocate is express admission: the SA decision (allocate) taken
// at arrival time, with two extra requirements — the output VC must hold
// credits for the entire message (the whole-message admission window), so the
// admitted worm streams at link rate without ever stalling on flow control,
// and the output port's link must be free of other express transits
// (expressPortFree). On failure the message is untouched.
func (r *Router) expressAllocate(msg *flow.Message, now int64) (topology.Port, flow.VCID, bool) {
	if msg.Length > r.cfg.BufDepth {
		// The full window cannot exist (wormhole with long messages):
		// express never applies, the pipeline handles the worm.
		return 0, 0, false
	}
	rs := msg.Route
	if !r.cfg.LookAhead {
		rs = r.routes.Lookup(r.id, msg.Dst, msg.Dateline)
	}
	_, offS := r.expressOffsets()
	return r.allocate(msg, rs, msg.Length, expressOwner, now+offS)
}

// expressPortFree reports whether an express transit whose first flit
// leaves the output stage at cycle firstSend may use port p: no per-flit
// express worm is streaming through it and any prior express reservation
// of the link has drained. The local port has no link to serialize.
func (r *Router) expressPortFree(p topology.Port, firstSend int64) bool {
	if p == topology.PortLocal {
		return true
	}
	return r.port[p].expressOut == 0 && firstSend > r.port[p].linkBusyUntil
}

// transit forwards a run of n consecutive flits of an admitted express
// transit — fl latched at cycle now on input VC in, the rest at link rate
// behind it — through the claimed output VC j, issuing the upstream credit
// and the downstream send (or local delivery) at the cycles the pipeline
// would have (expressOffsets). A whole worm is one run (n = its length), a
// per-flit express hop a run of one. The run's tail schedules the output
// VC's release for the cycle after it leaves the output stage.
func (r *Router) transit(in, j int, fl flow.Flit, n int, now int64) {
	offC, offS := r.expressOffsets()
	last := now + int64(n) - 1
	// The run's last flit: fl itself on the per-flit path, which therefore
	// never touches the message behind a body flit.
	lastFl := fl
	if n > 1 {
		lastFl = flow.FlitAt(fl.Msg, int(fl.Seq)+n-1)
	}
	tail := lastFl.Type.IsTail()
	// The n buffer slots the upstream sender debited were never filled,
	// but the credit protocol is unchanged: they free when the crossbar
	// would have drained the last of them.
	r.fab.Credit(topology.Port(r.portOf[in]), flow.VCID(in-int(r.vcBase[in])), n, last+offC)
	port := topology.Port(r.portOf[j])
	ps := &r.port[port]
	ps.useCount += uint64(n)
	ps.lastUsed = last + offS
	if port == topology.PortLocal {
		// Ejection: the run's last flit reaches the NI at the cycle the
		// pipeline would have delivered it. The local sink needs no link
		// and no credits, so the tail releases the claimed VC at once.
		r.fab.Deliver(lastFl, last+offS)
		if tail {
			r.releaseVC(j)
		}
		return
	}
	ovc := &r.out[j]
	ovc.credits -= n
	if ovc.credits == 0 {
		r.hasCredit &^= 1 << j
	}
	if fl.Type.IsHead() {
		fl.Msg.Hops++
	}
	if t := last + offS; t > ps.linkBusyUntil {
		if ps.linkBusyUntil < now {
			// Fresh window; otherwise merge with the still-draining
			// previous reservation so no cycle of it unblocks early.
			ps.linkBusyFrom = now + offS
		}
		ps.linkBusyUntil = t
	}
	vc := flow.VCID(j - int(r.vcBase[j]))
	r.fab.Send(port, vc, fl, n > 1, now+offS)
	if tail {
		// The tail is still upstream of the output stage until last+offS.
		// Releasing the VC here would let a buffered message win it in SA
		// and put a flit on the link before the tail, arriving out of
		// order downstream; hold the claim until the tail has left.
		r.fab.Release(port, vc, last+offS+1)
	}
}

// AcceptCredits returns count credits to output (port, vc) in one call —
// the batched form event mode's worm transits use (a whole admission
// window frees at once when the downstream tail clears its crossbar).
func (r *Router) AcceptCredits(p topology.Port, v flow.VCID, count int) {
	j := r.inIdx(p, v)
	ovc := &r.out[j]
	ovc.credits += count
	if ovc.credits > r.cfg.BufDepth {
		panic(fmt.Sprintf("router %d: credit overflow on port %d vc %d", r.id, p, v))
	}
	r.hasCredit |= 1 << j
}

// Tick advances the router by one cycle and returns its remaining
// occupancy, reporting idle (0) or active (>0) so the network's
// active-set scheduler can deregister drained routers without a separate
// scan (Active answers the same question without ticking). The network
// must deliver all flits and credits due at cycle now before calling
// Tick(now).
func (r *Router) Tick(now int64) int {
	if r.occupancy == 0 {
		// Nothing buffered anywhere: every stage would scan and find
		// no work. (A VC waiting in RC/SA always holds its header in
		// the input buffer, so occupancy covers those states too.)
		return 0
	}
	r.stageRC(now)
	r.stageSA(now)
	r.stageOUT(now, r.stageXB(now))
	return r.occupancy
}

// stageRC performs the table-lookup stage for PROUD headers.
func (r *Router) stageRC(now int64) {
	if r.cfg.LookAhead {
		return
	}
	for m := r.actRC; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		ivc := &r.in[i]
		if ivc.readyAt > now {
			continue
		}
		ivc.route = r.routes.Lookup(r.id, ivc.msg.Dst, ivc.msg.Dateline)
		ivc.phase = phaseWaitSA
		ivc.readyAt = now + 1
		r.actRC &^= 1 << i
		r.actSA |= 1 << i
	}
}

// stageSA performs selection + arbitration (output VC allocation) for
// waiting headers. Input VCs are scanned from a rotating offset so no VC
// is structurally favored; a claim takes effect immediately, so later VCs
// in the same cycle see it — sequential arbitration with rotating
// priority. The rotation advances every cycle the stage runs, whether or
// not any header waits, matching the pre-mask scan order exactly.
func (r *Router) stageSA(now int64) {
	start := r.saRot
	r.saRot++
	if r.saRot == len(r.in) {
		r.saRot = 0
	}
	if r.actSA == 0 {
		return
	}
	// Visit waiting VCs at indices >= start first, then the wraparound —
	// the same order the rotating full scan produced.
	for m := r.actSA &^ (1<<start - 1); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		ivc := &r.in[i]
		if ivc.readyAt > now {
			continue
		}
		r.tryAllocate(i, ivc, now)
	}
	for m := r.actSA & (1<<start - 1); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		ivc := &r.in[i]
		if ivc.readyAt > now {
			continue
		}
		r.tryAllocate(i, ivc, now)
	}
}

// tryAllocate attempts the SA stage for one waiting header: on success the
// input VC streams toward the claimed output VC; otherwise the header
// stalls and retries next cycle.
func (r *Router) tryAllocate(idx int, ivc *inputVC, now int64) {
	// The header waits at the front of the buffer; ivc.msg is its message.
	// Wormhole: a free VC is claimable whatever its credits.
	port, vc, ok := r.allocate(ivc.msg, ivc.route, 0, int32(idx), noExpress)
	if !ok {
		return
	}
	ivc.outPort = port
	ivc.outIdx = int32(r.inIdx(port, vc))
	ivc.phase = phaseActive
	r.actSA &^= 1 << idx
	// The header is buffered and a just-claimed VC's box is empty; the
	// crossbar stage follows SA by a cycle.
	r.requestFresh(idx, port, now)
}

// noExpress is allocate's expressAt for a pipelined header: no link test.
const noExpress int64 = -1

// allocate is the selection + arbitration decision for msg's header, which
// carries candidate set rs at this router: determine the eligible
// candidates, run the path-selection heuristic, claim an output VC for
// owner and build the outgoing header. A candidate is eligible when its
// link is alive, one of its VCs is claimable with needCredits credits
// (claimable) and — for an express transit whose first flit would leave the
// output stage at cycle expressAt — its link is free of other express
// transits. It reports false, with nothing claimed and the message
// untouched, when no candidate is eligible. The heuristic runs only when a
// claim follows, so a header meets it once per hop.
func (r *Router) allocate(msg *flow.Message, rs flow.RouteSet, needCredits int, owner int32, expressAt int64) (topology.Port, flow.VCID, bool) {
	// Pass 1: candidates with a free adaptive VC. Duato's protocol
	// prefers adaptive channels and falls back to the escape channel
	// (pass 2) only when no adaptive VC is free this cycle. A message
	// committed to the escape class (see Config.EscapeCommit) skips the
	// adaptive pass entirely.
	escape := r.cfg.EscapeCommit && msg.EscapeCommitted
	var eligible uint8
	for {
		for i := 0; i < rs.Len(); i++ {
			c := rs.At(i)
			if r.deadPorts&(1<<c.Port) != 0 || (expressAt >= 0 && !r.expressPortFree(c.Port, expressAt)) {
				continue
			}
			if r.claimable(c.Port, r.classMask(c, escape, msg.Class), needCredits) != 0 {
				eligible |= 1 << i
			}
		}
		if eligible != 0 || escape {
			break
		}
		escape = true
	}
	if eligible == 0 {
		return 0, 0, false
	}
	choice := 0
	if rs.Len() > 1 {
		choice = r.sel.Select(r, rs, eligible, r.seed, r.id, msg.ID)
	} else if eligible&1 == 0 {
		panic("router: single candidate not eligible")
	}
	cand := rs.At(choice)
	v := r.claimVC(cand.Port, r.classMask(cand, escape, msg.Class), needCredits, owner)

	// New header generation (concurrent with crossbar traversal in the
	// hardware): compute the dateline state after this hop and, in
	// look-ahead mode, the candidate set for the next router. Both are
	// written to the message's header slot, which the next router's input
	// stage reads strictly after this (see flow.Message.Route).
	if escape && r.cfg.EscapeCommit {
		msg.EscapeCommitted = true
	}
	if cand.Port != topology.PortLocal {
		next := msg.Dateline
		if r.wrap {
			next = nextDatelineBit(r.mesh, r.id, cand.Port, next)
		}
		msg.Dateline = next
		if r.cfg.LookAhead {
			msg.Route = r.lookAhead(cand.Port, msg)
		}
	}
	return cand.Port, v, true
}

// lookAhead returns the candidates msg's header needs at the neighbor
// through port p: that router's own lookup, computed here concurrently with
// arbitration. msg.Dateline must already hold its state after the hop.
func (r *Router) lookAhead(p topology.Port, msg *flow.Message) flow.RouteSet {
	nb, ok := r.mesh.Neighbor(r.id, p)
	if !ok {
		panic(fmt.Sprintf("router %d: look-ahead through port %d, which has no neighbor", r.id, p))
	}
	return r.routes.Lookup(nb, msg.Dst, msg.Dateline)
}

// classMask returns the VCs of candidate c a header of the given class may
// claim in the escape pass (c.Escape, never restricted — every class keeps
// the deadlock-free path, so reservation affects performance, not liveness)
// or the adaptive pass (c.Adaptive, less the VCs reserved for high-class
// messages when class is 0).
func (r *Router) classMask(c flow.Candidate, escape bool, class uint8) flow.VCMask {
	if escape {
		return c.Escape
	}
	if class == 0 {
		return c.Adaptive &^ r.resvMask
	}
	return c.Adaptive
}

// claimable returns the VCs of mask on port p a header may claim: unowned
// and holding at least needCredits credits (an express worm's whole-message
// window; 0 for a pipelined header).
// The local port's sink always has room.
func (r *Router) claimable(p topology.Port, mask flow.VCMask, needCredits int) uint64 {
	base := int(p) * r.cfg.NumVCs
	free := r.freeOut >> base & (1<<r.cfg.NumVCs - 1) & uint64(mask)
	if needCredits == 0 || p == topology.PortLocal {
		return free
	}
	for m := free; m != 0; m &= m - 1 {
		v := bits.TrailingZeros64(m)
		if r.out[base+v].credits < needCredits {
			free &^= 1 << v
		}
	}
	return free
}

// claimVC allocates a claimable VC in mask on port p, rotating the
// starting VC for fairness. It panics if none is claimable (callers check
// first).
func (r *Router) claimVC(p topology.Port, mask flow.VCMask, needCredits int, owner int32) flow.VCID {
	g := r.port[p].vcArb.Grant(r.claimable(p, mask, needCredits))
	if g < 0 {
		panic("router: claimVC with no free VC")
	}
	j := int(p)*r.cfg.NumVCs + g
	r.out[j].owner = owner
	r.freeOut &^= 1 << j
	r.port[p].busyVCs++
	return flow.VCID(g)
}

// stageXB performs crossbar arbitration and traversal. Following the
// paper's model — "a router can be considered as a set of parallel PROUD
// pipes equal to the product of the number of physical input/output ports
// and the number of VCs; contention for resources between the parallel
// pipes can occur only in the crossbar arbitration and VC multiplexing
// stages" (section 2.2) — each input VC is its own crossbar input, so the
// switch contends only per output port: one flit per output port per
// cycle, granted round-robin over all requesting input VCs.
//
// The requests are standing (see Router.xbReq), so the stage is one grant
// per requesting port, in ascending port order. It returns the output VCs
// whose box holds only the flit latched this cycle, which stageOUT may not
// send yet.
func (r *Router) stageXB(now int64) uint64 {
	var fresh uint64
	if r.freshAt == now {
		fresh = r.fresh
	}
	before := r.boxed
	for ports := r.xbPorts; ports != 0; ports &= ports - 1 {
		op := bits.TrailingZeros64(ports)
		reqs := r.xbReq[op] &^ fresh
		if reqs == 0 {
			continue
		}
		g := r.port[op].xbArb.Grant(reqs)
		r.traverse(g, now)
	}
	return r.boxed &^ before
}

// traverse moves the head flit of input VC inIdx through the crossbar into
// its allocated output buffer.
func (r *Router) traverse(inIdx int, now int64) {
	ivc := &r.in[inIdx]
	ovc := &r.out[ivc.outIdx]
	fl := ivc.buf.pop()
	// Propagate the header fields computed at SA to the stored copy.
	ovc.box.push(fl)
	r.boxed |= 1 << ivc.outIdx
	full := ovc.box.full()
	if full {
		r.boxFull |= 1 << ivc.outIdx
	}
	if full || fl.Type.IsTail() || ivc.buf.empty() {
		r.withdraw(inIdx, ivc.outPort)
	}
	// Return the freed buffer slot upstream.
	p := topology.Port(r.portOf[inIdx])
	v := flow.VCID(inIdx - int(r.vcBase[inIdx]))
	r.fab.Credit(p, v, 1, now)
	if fl.Type.IsTail() {
		// The worm has fully left this input VC.
		ivc.phase = phaseIdle
		ivc.route = flow.RouteSet{}
		ivc.msg = nil
		if !ivc.buf.empty() {
			nxt := ivc.buf.peek()
			if !nxt.Type.IsHead() {
				panic("router: non-head flit follows tail in input buffer")
			}
			r.startHeader(inIdx, ivc, nxt, now)
		}
	}
}

// stageOUT performs the VC-multiplex / output stage: per physical port,
// one flit with credit is placed on the link (or delivered locally).
// freshOut is stageXB's report of the boxes still in their latch cycle.
func (r *Router) stageOUT(now int64, freshOut uint64) {
	// Visit only ports with a sendable flit, ascending — the same port
	// order as a full scan, with the other ports (which never touch their
	// arbiter) skipped for free.
	for bm := r.boxed & r.hasCredit &^ freshOut; bm != 0; {
		lowest := bits.TrailingZeros64(bm)
		base := int(r.vcBase[lowest])
		p := int(r.portOf[lowest])
		group := (uint64(1)<<r.cfg.NumVCs - 1) << base
		reqs := bm & group >> base
		bm &^= group
		ps := &r.port[p]
		if ps.linkBusyFrom <= now && now <= ps.linkBusyUntil && (now-ps.linkBusyFrom)&1 == 0 {
			// An express worm is streaming on this wire (event mode; the
			// window is never set in cycle mode). Had the worm been
			// pipelined, the output mux would round-robin it against the
			// buffered contenders, halving both rates; the worm's events are
			// already committed, so approximate the shared wire by yielding
			// it to buffered traffic every other cycle.
			continue
		}
		g := ps.muxAr.Grant(reqs)
		j := base + g
		ovc := &r.out[j]
		fl := ovc.box.pop()
		if r.boxFull>>j&1 != 0 {
			r.boxFull &^= 1 << j
			// The worm feeding this box was parked on it; its request
			// returns if it still has a flit to offer. The owner field
			// outlives the worm while its tail sits in the box, so the
			// input VC it names may already stream another worm elsewhere.
			o := int(ovc.owner)
			if ivc := &r.in[o]; ivc.phase == phaseActive && int(ivc.outIdx) == j && !ivc.buf.empty() {
				r.request(o, topology.Port(p))
			}
		}
		if ovc.box.empty() {
			r.boxed &^= 1 << j
		}
		r.occupancy--
		ps.useCount++
		ps.lastUsed = now
		if p == int(topology.PortLocal) {
			r.fab.Deliver(fl, now)
		} else {
			ovc.credits--
			if ovc.credits == 0 {
				r.hasCredit &^= 1 << j
			}
			if fl.Type.IsHead() {
				fl.Msg.Hops++
			}
			r.fab.Send(topology.Port(p), flow.VCID(g), fl, false, now)
		}
		if fl.Type.IsTail() {
			r.releaseVC(j)
		}
	}
}

// nextDatelineBit sets the dimension bit when the hop through port p
// crosses a torus wraparound link.
func nextDatelineBit(m *topology.Mesh, id topology.NodeID, p topology.Port, dl uint8) uint8 {
	d := topology.PortDim(p)
	x := m.CoordAxis(id, d)
	k := m.Radix(d)
	if (topology.PortSign(p) > 0 && x == k-1) || (topology.PortSign(p) < 0 && x == 0) {
		dl |= 1 << d
	}
	return dl
}

// BusyVCs implements selection.PortView.
func (r *Router) BusyVCs(p topology.Port) int { return int(r.port[p].busyVCs) }

// Credits implements selection.PortView: total credits over the port's VCs.
func (r *Router) Credits(p topology.Port) int {
	base := int(p) * r.cfg.NumVCs
	total := 0
	for v := 0; v < r.cfg.NumVCs; v++ {
		total += r.out[base+v].credits
	}
	return total
}

// UseCount implements selection.PortView.
func (r *Router) UseCount(p topology.Port) uint64 { return r.port[p].useCount }

// LastUsed implements selection.PortView.
func (r *Router) LastUsed(p topology.Port) int64 { return r.port[p].lastUsed }

// RemoteCongestion implements selection.PortView: the latest congestion
// level the downstream router on port p piggybacked on a credit.
func (r *Router) RemoteCongestion(p topology.Port) uint8 { return r.port[p].remoteCong }

// NoteCongestion records the quantized congestion level carried by a
// credit arriving on output port p. The network calls it while draining
// credit events, so the signal is exactly as stale as the credit itself.
func (r *Router) NoteCongestion(p topology.Port, level uint8) {
	r.port[p].remoteCong = level
}

// CongestionLevel quantizes this router's buffered-flit occupancy into the
// 2-bit signal piggybacked on credits: 0 (idle) through 3 (saturated),
// scaled against one port's worth of input buffering (NumVCs*BufDepth) —
// a router backing up past a full port of storage is congested however
// the flits are distributed.
func (r *Router) CongestionLevel() uint8 {
	q := 4 * r.occupancy / (r.cfg.NumVCs * r.cfg.BufDepth)
	if q > 3 {
		q = 3
	}
	return uint8(q)
}

// Occupancy returns the number of flits buffered in the router, used by
// the network's quiescence and progress checks.
func (r *Router) Occupancy() int { return r.occupancy }
