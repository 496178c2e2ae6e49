package router

import (
	"slices"
	"testing"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/topology"
)

// A PROUD router must ignore any Route carried in the header and use its
// own table (the header is only trusted in look-ahead mode).
func TestPROUDIgnoresHeaderRoute(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, defCfg, alg, selection.New(selection.StaticXY, 0))
	msg := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 1)
	fl := mkFlit(msg, 0)
	// Poison the header with a bogus route pointing the wrong way.
	fl.Msg.Route.Add(flow.Candidate{Port: topology.PortMinus(1), Adaptive: flow.MaskAll(4)})
	h.r.EnqueueFlit(topology.PortMinus(0), 0, fl, 0)
	h.run(0, 10)
	s := h.sends()
	if len(s) != 1 || s[0].port != topology.PortPlus(0) {
		t.Fatalf("PROUD router did not use its own table: %+v", s)
	}
}

// Conversely, an LA router trusts the header even when it disagrees with
// the local table — that is the contract look-ahead depends on.
func TestLATrustsHeaderRoute(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	cfg := defCfg
	cfg.LookAhead = true
	h := newHarness(t, m, node, cfg, alg, selection.New(selection.StaticXY, 0))
	msg := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 1)
	fl := mkFlit(msg, 0)
	// Header says +Y although XY would say +X.
	fl.Msg.Route.Add(flow.Candidate{Port: topology.PortPlus(1), Adaptive: flow.MaskAll(4)})
	h.r.EnqueueFlit(topology.PortMinus(0), 0, fl, 0)
	h.run(0, 10)
	s := h.sends()
	if len(s) != 1 || s[0].port != topology.PortPlus(1) {
		t.Fatalf("LA router did not follow the header: %+v", s)
	}
}

// A full output buffer must backpressure the crossbar, not overflow.
func TestOutboxBackpressure(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 2}, nil)
	node := m.ID(topology.Coord{1, 1})
	cfg := Config{NumVCs: 2, BufDepth: 8, OutDepth: 1}
	h := newHarness(t, m, node, cfg, alg, selection.New(selection.StaticXY, 0))
	// A long message with credits never returned: after BufDepth (8)
	// link sends the output stalls, the depth-1 outbox fills, and the
	// crossbar must stop draining the input buffer.
	msg := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 20)
	for c := int64(0); c <= 40; c++ {
		if c < 12 {
			h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, int(c)), c)
		}
		h.r.Tick(c)
	}
	// Only BufDepth (8) flits can have been sent (credits exhausted);
	// one more sits in the outbox; the rest wait in the input buffer.
	if n := len(h.sends()); n != 8 {
		t.Fatalf("sends = %d want 8 (credit-limited)", n)
	}
	if h.r.Occupancy() != 4 {
		t.Fatalf("occupancy = %d want 4 (12 in - 8 out)", h.r.Occupancy())
	}
}

// Two active messages on different VCs of the same output port share the
// physical link via the VC multiplexer, alternating fairly.
func TestVCMuxFairness(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, defCfg, alg, selection.New(selection.StaticXY, 0))
	dst := m.ID(topology.Coord{2, 1})
	a, b := mkMsg(1, 0, dst, 8), mkMsg(2, 0, dst, 8)
	for i := 0; i < 8; i++ {
		h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(a, i), int64(i))
		h.r.EnqueueFlit(topology.PortMinus(1), 0, mkFlit(b, i), int64(i))
	}
	h.run(0, 40)
	s := h.sends()
	if len(s) != 16 {
		t.Fatalf("sends = %d want 16", len(s))
	}
	// In the steady interleaved window, consecutive sends alternate
	// between the two messages.
	swaps := 0
	for i := 1; i < len(s); i++ {
		if s[i].fl.Msg.ID != s[i-1].fl.Msg.ID {
			swaps++
		}
	}
	if swaps < 10 {
		t.Errorf("VC mux barely interleaved: %d alternations in 16 sends", swaps)
	}
}

// A single-flit message must release both input-side and output-side VC
// state in one pass.
func TestHeadTailReleasesAllState(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, defCfg, alg, selection.New(selection.StaticXY, 0))
	dst := m.ID(topology.Coord{2, 1})
	for i := 0; i < 5; i++ {
		msg := mkMsg(int64(i+1), 0, dst, 1)
		h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, 0), int64(i*10))
		h.run(int64(i*10), int64(i*10+9))
	}
	if n := len(h.sends()); n != 5 {
		t.Fatalf("sends = %d want 5", n)
	}
	if h.r.BusyVCs(topology.PortPlus(0)) != 0 {
		t.Errorf("output VCs leaked: %d busy", h.r.BusyVCs(topology.PortPlus(0)))
	}
	if h.r.Occupancy() != 0 {
		t.Errorf("occupancy leaked: %d", h.r.Occupancy())
	}
}

// Adaptive VC allocation rotates across the adaptive class rather than
// pinning the lowest VC.
func TestVCAllocationRotates(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	alg := routing.NewDuato(m, cls)
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, defCfg, alg, selection.New(selection.StaticXY, 0))
	dst := m.ID(topology.Coord{3, 1})
	vcSeen := map[flow.VCID]bool{}
	for i := 0; i < 6; i++ {
		msg := mkMsg(int64(i+1), 0, dst, 1)
		h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, 0), int64(i*12))
		h.run(int64(i*12), int64(i*12+11))
	}
	for _, e := range h.sends() {
		vcSeen[e.vc] = true
	}
	// The three adaptive VCs (1..3) should all have been used.
	if !vcSeen[1] || !vcSeen[2] || !vcSeen[3] {
		t.Errorf("VC allocation did not rotate: used %v", vcSeen)
	}
	if vcSeen[0] {
		t.Errorf("escape VC used without adaptive exhaustion")
	}
}

// The router must reject construction with a bad config.
func TestNewPanicsOnBadConfig(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newHarness(t, m, 4, Config{NumVCs: 0, BufDepth: 4, OutDepth: 2}, alg, selection.New(selection.StaticXY, 0))
}

// Dateline bookkeeping: a header crossing the torus wraparound link picks
// up the dimension bit, observable in the sent header.
func TestDatelineBitSetOnWrap(t *testing.T) {
	m := topology.NewTorus(4, 4)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 2}
	alg := routing.NewDuato(m, cls)
	node := m.ID(topology.Coord{3, 0}) // +X hop wraps to x=0
	h := newHarness(t, m, node, defCfg, alg, selection.New(selection.StaticXY, 0))
	dst := m.ID(topology.Coord{1, 0}) // minimal route: +X through the wrap
	msg := mkMsg(1, 0, dst, 1)
	h.r.EnqueueFlit(topology.PortMinus(0), 1, mkFlit(msg, 0), 0)
	h.run(0, 12)
	s := h.sends()
	if len(s) != 1 || s[0].port != topology.PortPlus(0) {
		t.Fatalf("unexpected route: %+v", s)
	}
	if s[0].fl.Msg.Dateline&1 == 0 {
		t.Error("dateline bit not set on wrap crossing")
	}
}

// edgeHarness is a depth-1-box router at the centre of a 3x3 mesh under XY
// routing, with every +X output VC holding exactly credits credits: the
// smallest router in which a box fills and a link starves on demand.
func edgeHarness(t *testing.T, credits int) *harness {
	t.Helper()
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 2}, nil)
	h := newHarness(t, m, m.ID(topology.Coord{1, 1}), Config{NumVCs: 2, BufDepth: 8, OutDepth: 1}, alg, selection.New(selection.StaticXY, 0))
	for v := flow.VCID(0); v < 2; v++ {
		h.r.SetCredits(topology.PortPlus(0), v, credits)
	}
	return h
}

// tick runs one cycle and holds the request masks to a fresh scan.
func (h *harness) tick(t *testing.T, now int64) {
	t.Helper()
	h.r.Tick(now)
	if err := h.r.CheckRequestState(); err != nil {
		t.Fatalf("cycle %d: %v", now, err)
	}
}

// times returns the cycles of the recorded events of one kind that carry
// a flit of msg (nil for credits, which carry none).
func (h *harness) times(kind string, msg *flow.Message) []int64 {
	var at []int64
	for _, e := range h.events {
		if e.kind == kind && e.fl.Msg == msg {
			at = append(at, e.at)
		}
	}
	return at
}

// An output VC's owner field outlives the worm while its tail waits in the
// box. When that box finally drains, the input VC it names may already be
// streaming the next worm to another output: the pop must not raise a
// crossbar request toward the old port on its behalf.
func TestStaleOwnerNotWokenByTailPop(t *testing.T) {
	h := edgeHarness(t, 1)
	m := h.r.mesh
	in := topology.PortMinus(0)
	a := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 2) // +X: one credit, then starved
	b := mkMsg(2, 0, m.ID(topology.Coord{1, 2}), 6) // +Y, queued behind a on the same input VC
	feed := map[int64]flow.Flit{0: mkFlit(a, 0), 1: mkFlit(a, 1)}
	for i := 0; i < 6; i++ {
		feed[int64(2+i)] = mkFlit(b, i)
	}
	for now := int64(0); now <= 22; now++ {
		if fl, ok := feed[now]; ok {
			h.r.EnqueueFlit(in, 0, fl, now)
		}
		if now == 10 {
			// a's tail has sat in the full +X box since cycle 5; b has
			// been streaming to +Y since cycle 8.
			if got := h.times("send", a); len(got) != 1 {
				t.Fatalf("before the credit a sent %d flits, want 1 (tail parked in the box)", len(got))
			}
			h.r.AcceptCredit(topology.PortPlus(0), h.sends()[0].vc)
		}
		h.tick(t, now)
		// a's tail traverses at cycle 5; from then on nothing is bound for +X.
		if now >= 5 && h.r.xbReq[topology.PortPlus(0)] != 0 {
			t.Fatalf("cycle %d: a request toward +X (%#x) with no worm bound there", now, h.r.xbReq[topology.PortPlus(0)])
		}
	}
	if got, want := h.times("send", a), []int64{4, 10}; !slices.Equal(got, want) {
		t.Errorf("a sent at %v want %v", got, want)
	}
	// b: header restarts when a's tail traverses (5), RC 6, SA 7, XB 8,
	// OUT 9, then one flit per two cycles (a depth-1 box alternates
	// between latching and sending) — undisturbed by the pop at 10.
	if got, want := h.times("send", b), []int64{9, 11, 13, 15, 17, 19}; !slices.Equal(got, want) {
		t.Errorf("b sent at %v want %v", got, want)
	}
}

// A worm parked on a full box with a drained buffer: the box drains (in the
// output stage) in the very cycle the next flit latches. The flit requests
// the crossbar from the next cycle on — the wake must see it although
// EnqueueFlit, finding the box still full, raised nothing.
func TestParkedWormRefilledAsBoxDrains(t *testing.T) {
	h := edgeHarness(t, 1)
	m := h.r.mesh
	in, out := topology.PortMinus(0), topology.PortPlus(0)
	a := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 3)
	for now := int64(0); now <= 14; now++ {
		switch now {
		case 0, 1:
			h.r.EnqueueFlit(in, 0, mkFlit(a, int(now)), now)
		case 8:
			// Flit 1 has filled the box since cycle 5 and the buffer is
			// empty: credit and tail arrive together.
			h.r.AcceptCredit(out, h.sends()[0].vc)
			h.r.EnqueueFlit(in, 0, mkFlit(a, 2), now)
		case 9:
			h.r.AcceptCredit(out, h.sends()[0].vc)
		}
		h.tick(t, now)
	}
	// Crossbar traversals are visible as the upstream credits they return.
	xb := h.times("credit", nil)
	if want := []int64{3, 5, 9}; !slices.Equal(xb, want) {
		t.Errorf("crossbar traversals at %v want %v", xb, want)
	}
	if got, want := h.times("send", a), []int64{4, 8, 10}; !slices.Equal(got, want) {
		t.Errorf("sends at %v want %v", got, want)
	}
}

// The crossbar stage follows SA by a cycle: a header that wins its output
// VC at cycle t raises its request in t but is not served before t+1, even
// with the crossbar idle and its flits long buffered.
func TestAllocatedHeaderWaitsACycleForCrossbar(t *testing.T) {
	for _, la := range []bool{false, true} {
		m := topology.NewMesh(3, 3)
		alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
		cfg := defCfg
		cfg.LookAhead = la
		node := m.ID(topology.Coord{1, 1})
		h := newHarness(t, m, node, cfg, alg, selection.New(selection.StaticXY, 0))
		msg := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 4)
		msg.Route = alg.Route(node, msg.Dst, 0)
		for i := 0; i < 4; i++ {
			h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, i), 0)
		}
		sa := int64(2) // IB 0, RC 1, SA 2
		if la {
			sa = 1 // no RC stage
		}
		idx := h.r.inIdx(topology.PortMinus(0), 0)
		for now := int64(0); now <= sa; now++ {
			h.tick(t, now)
		}
		if h.r.in[idx].phase != phaseActive || h.r.xbReq[topology.PortPlus(0)] != 1<<idx {
			t.Fatalf("la=%v: header did not allocate and request at cycle %d", la, sa)
		}
		for _, e := range h.events {
			if e.kind == "credit" {
				t.Fatalf("la=%v: header traversed at cycle %d, the cycle it was allocated", la, e.at)
			}
		}
		h.tick(t, sa+1)
		if n := len(h.events); n != 1 || h.events[0].kind != "credit" || h.events[0].at != sa+1 {
			t.Fatalf("la=%v: events after cycle %d = %+v, want one crossbar credit", la, sa+1, h.events)
		}
	}
}

// A fault purge removes a worm that is parked mid-stream — output VC
// claimed, box full, link starved — and leaves a survivor queued behind it
// on the same input VC. After PurgeMessages and the network's credit
// recomputation (SetCredits) the survivor's header restarts, claims the
// freed VC and streams.
func TestSurvivorRestartsAfterPurge(t *testing.T) {
	h := edgeHarness(t, 1)
	m := h.r.mesh
	in, out := topology.PortMinus(0), topology.PortPlus(0)
	dst := m.ID(topology.Coord{2, 1})
	victim, survivor := mkMsg(1, 0, dst, 4), mkMsg(2, 0, dst, 3)
	for now := int64(0); now <= 7; now++ {
		switch {
		case now < 4:
			h.r.EnqueueFlit(in, 0, mkFlit(victim, int(now)), now)
		case now < 7:
			h.r.EnqueueFlit(in, 0, mkFlit(survivor, int(now-4)), now)
		}
		h.tick(t, now)
	}
	// The victim sent its head on the one credit; flit 1 fills the box and
	// flits 2-3 wait in the buffer ahead of the survivor.
	if got := len(h.sends()); got != 1 || h.r.Occupancy() != 6 || h.r.BusyVCs(out) != 1 {
		t.Fatalf("setup: %d sends, occupancy %d, %d busy VCs; want 1, 6, 1", got, h.r.Occupancy(), h.r.BusyVCs(out))
	}
	dropped := h.r.PurgeMessages(func(msg *flow.Message) bool { return msg == victim }, 7)
	for v := flow.VCID(0); v < 2; v++ {
		h.r.SetCredits(out, v, 8)
	}
	if err := h.r.CheckRequestState(); err != nil {
		t.Fatalf("after the purge: %v", err)
	}
	if dropped != 3 || h.r.Occupancy() != 3 || h.r.BusyVCs(out) != 0 {
		t.Fatalf("purge dropped %d flits leaving occupancy %d and %d busy VCs; want 3, 3, 0", dropped, h.r.Occupancy(), h.r.BusyVCs(out))
	}
	for now := int64(8); now <= 18; now++ {
		h.tick(t, now)
	}
	// Header restarted at 7: RC 8, SA 9, XB 10, OUT 11, then the depth-1
	// box's one flit per two cycles.
	if got, want := h.times("send", survivor), []int64{11, 13, 15}; !slices.Equal(got, want) {
		t.Errorf("survivor sent at %v want %v", got, want)
	}
	if h.r.Occupancy() != 0 || h.r.BusyVCs(out) != 0 {
		t.Errorf("state leaked: occupancy %d, %d busy VCs", h.r.Occupancy(), h.r.BusyVCs(out))
	}
}

// A flit arriving into the drained buffer of a streaming worm spends its
// arrival cycle in the input latch: it crosses the idle crossbar the cycle
// after, exactly as a flit queued behind others would have.
func TestLoneFlitWaitsOutItsLatchCycle(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	h := newHarness(t, m, m.ID(topology.Coord{1, 1}), defCfg, alg, selection.New(selection.StaticXY, 0))
	msg := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 3)
	arrive := map[int64]int{0: 0, 6: 1, 7: 2}
	for now := int64(0); now <= 12; now++ {
		if seq, ok := arrive[now]; ok {
			h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, seq), now)
		}
		h.tick(t, now)
	}
	xb := h.times("credit", nil)
	if want := []int64{3, 7, 8}; !slices.Equal(xb, want) {
		t.Errorf("crossbar traversals at %v want %v", xb, want)
	}
}
