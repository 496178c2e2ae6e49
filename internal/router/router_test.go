package router

import (
	"testing"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
)

// event records one fabric callback.
type event struct {
	kind string // "send", "credit", "deliver"; event mode: "worm", "release"
	port topology.Port
	vc   flow.VCID
	fl   flow.Flit
	n    int // credit count
	at   int64
}

// harness drives one router and is its recording Fabric.
type harness struct {
	r      *Router
	events []event
	// onSend, when set, additionally sees every Send (the fuzz test
	// schedules the credit's return from it).
	onSend func(p topology.Port, v flow.VCID, now int64)
}

func (h *harness) Send(p topology.Port, v flow.VCID, fl flow.Flit, worm bool, now int64) {
	kind := "send"
	if worm {
		kind = "worm"
	}
	h.events = append(h.events, event{kind: kind, port: p, vc: v, fl: fl, at: now})
	if h.onSend != nil && !worm {
		h.onSend(p, v, now)
	}
}

func (h *harness) Credit(p topology.Port, v flow.VCID, count int, now int64) {
	h.events = append(h.events, event{kind: "credit", port: p, vc: v, n: count, at: now})
}

func (h *harness) Deliver(fl flow.Flit, now int64) {
	h.events = append(h.events, event{kind: "deliver", fl: fl, at: now})
}

func (h *harness) Release(p topology.Port, v flow.VCID, at int64) {
	h.events = append(h.events, event{kind: "release", port: p, vc: v, at: at})
}

func newHarness(t *testing.T, m *topology.Mesh, node topology.NodeID, cfg Config, alg routing.Algorithm, sel selection.Selector) *harness {
	t.Helper()
	h := &harness{r: New(node, m, cfg, table.NewFull(m, alg, node), sel)}
	h.r.SetFabric(h)
	return h
}

func (h *harness) run(from, to int64) {
	for c := from; c <= to; c++ {
		h.r.Tick(c)
	}
}

func (h *harness) sends() []event {
	var out []event
	for _, e := range h.events {
		if e.kind == "send" {
			out = append(out, e)
		}
	}
	return out
}

func (h *harness) delivered() []event {
	var out []event
	for _, e := range h.events {
		if e.kind == "deliver" {
			out = append(out, e)
		}
	}
	return out
}

func mkMsg(id int64, src, dst topology.NodeID, length int) *flow.Message {
	return &flow.Message{ID: flow.MessageID(id), Src: src, Dst: dst, Length: length}
}

func mkFlit(msg *flow.Message, seq int) flow.Flit {
	return flow.Flit{Msg: msg, Seq: int32(seq), Type: flow.TypeFor(seq, msg.Length)}
}

var defCfg = Config{NumVCs: 4, BufDepth: 20, OutDepth: 4}

// The PROUD pipeline: a header enqueued at cycle 0 must hit the wire at
// cycle 4 (IB=0, RC=1, SA=2, XB=3, OUT=4): 5 router stages.
func TestPROUDHeaderTiming(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	h := newHarness(t, m, m.ID(topology.Coord{1, 1}), defCfg, alg, selection.New(selection.StaticXY, 0))
	msg := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 1)
	h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, 0), 0)
	h.run(0, 10)
	s := h.sends()
	if len(s) != 1 {
		t.Fatalf("sends = %d want 1", len(s))
	}
	if s[0].at != 4 {
		t.Errorf("PROUD header sent at %d want 4", s[0].at)
	}
	if s[0].port != topology.PortPlus(0) {
		t.Errorf("sent out port %d want +X", s[0].port)
	}
}

// The LA-PROUD pipeline skips the RC stage: wire at cycle 3.
func TestLAPROUDHeaderTiming(t *testing.T) {
	m := topology.NewMesh(3, 3)
	cls := routing.Class{NumVCs: 4}
	alg := routing.NewDimOrder(m, cls, nil)
	cfg := defCfg
	cfg.LookAhead = true
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, cfg, alg, selection.New(selection.StaticXY, 0))
	msg := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 1)
	fl := mkFlit(msg, 0)
	// The LA header carries the candidates valid at this router.
	msg.Route = alg.Route(node, msg.Dst, 0)
	h.r.EnqueueFlit(topology.PortMinus(0), 0, fl, 0)
	h.run(0, 10)
	s := h.sends()
	if len(s) != 1 {
		t.Fatalf("sends = %d want 1", len(s))
	}
	if s[0].at != 3 {
		t.Errorf("LA-PROUD header sent at %d want 3", s[0].at)
	}
}

// A full message streams at one flit per cycle behind the header.
func TestWormholeStreaming(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, defCfg, alg, selection.New(selection.StaticXY, 0))
	msg := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 5)
	for i := 0; i < 5; i++ {
		h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, i), int64(i))
	}
	h.run(0, 20)
	s := h.sends()
	if len(s) != 5 {
		t.Fatalf("sends = %d want 5", len(s))
	}
	for i, e := range s {
		if e.at != int64(4+i) {
			t.Errorf("flit %d sent at %d want %d", i, e.at, 4+i)
		}
		if e.fl.Seq != int32(i) {
			t.Errorf("out-of-order flit: got seq %d at position %d", e.fl.Seq, i)
		}
	}
}

// Ejection: flits to the local node are delivered, not sent.
func TestEjection(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, defCfg, alg, selection.New(selection.StaticXY, 0))
	msg := mkMsg(1, 0, node, 2)
	h.r.EnqueueFlit(topology.PortMinus(0), 1, mkFlit(msg, 0), 0)
	h.r.EnqueueFlit(topology.PortMinus(0), 1, mkFlit(msg, 1), 1)
	h.run(0, 12)
	if len(h.sends()) != 0 {
		t.Fatalf("ejecting message must not be sent on a link")
	}
	d := h.delivered()
	if len(d) != 2 {
		t.Fatalf("delivered = %d want 2", len(d))
	}
	if d[0].at != 4 || d[1].at != 5 {
		t.Errorf("delivery cycles %d,%d want 4,5", d[0].at, d[1].at)
	}
}

// Credits: each flit leaving the input buffer returns exactly one credit
// upstream, on the arrival (port, vc).
func TestCreditReturn(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, defCfg, alg, selection.New(selection.StaticXY, 0))
	msg := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 3)
	for i := 0; i < 3; i++ {
		h.r.EnqueueFlit(topology.PortMinus(0), 2, mkFlit(msg, i), int64(i))
	}
	h.run(0, 20)
	credits := 0
	for _, e := range h.events {
		if e.kind == "credit" {
			credits++
			if e.port != topology.PortMinus(0) || e.vc != 2 {
				t.Errorf("credit on (%d,%d) want (-X,2)", e.port, e.vc)
			}
		}
	}
	if credits != 3 {
		t.Errorf("credits = %d want 3", credits)
	}
}

// Without credits the output stalls: downstream buffer of 1 means only one
// flit leaves until a credit comes back.
func TestCreditStall(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	cfg := defCfg
	cfg.BufDepth = 1 // credits per output VC = 1
	h := newHarness(t, m, node, cfg, alg, selection.New(selection.StaticXY, 0))
	msg := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 3)
	h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, 0), 0)
	h.run(0, 3)
	h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, 1), 4)
	h.run(4, 8)
	if n := len(h.sends()); n != 1 {
		t.Fatalf("sends with 1 credit = %d want 1", n)
	}
	// Return a credit: the second flit goes out.
	h.r.AcceptCredit(topology.PortPlus(0), h.sends()[0].vc)
	h.run(9, 14)
	if n := len(h.sends()); n != 2 {
		t.Fatalf("sends after credit = %d want 2", n)
	}
}

// Two messages at different input VCs contending for one output port share
// the link one flit per cycle, and wormhole worms never interleave within
// one VC.
func TestOutputContention(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, defCfg, alg, selection.New(selection.StaticXY, 0))
	dst := m.ID(topology.Coord{2, 1})
	a := mkMsg(1, 0, dst, 4)
	b := mkMsg(2, 0, dst, 4)
	for i := 0; i < 4; i++ {
		h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(a, i), int64(i))
		h.r.EnqueueFlit(topology.PortMinus(1), 0, mkFlit(b, i), int64(i))
	}
	h.run(0, 30)
	s := h.sends()
	if len(s) != 8 {
		t.Fatalf("sends = %d want 8", len(s))
	}
	// One flit per cycle on the shared physical channel.
	for i := 1; i < len(s); i++ {
		if s[i].at == s[i-1].at {
			t.Fatalf("two flits on one link in cycle %d", s[i].at)
		}
	}
	// Per message, flits stay ordered.
	seq := map[flow.MessageID]int32{}
	for _, e := range s {
		if e.fl.Seq != seq[e.fl.Msg.ID] {
			t.Fatalf("msg %d flit out of order: %d want %d", e.fl.Msg.ID, e.fl.Seq, seq[e.fl.Msg.ID])
		}
		seq[e.fl.Msg.ID]++
	}
}

// A second message queued behind a tail in the same input VC starts its
// own pipeline after the tail clears.
func TestBackToBackMessagesOneVC(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, defCfg, alg, selection.New(selection.StaticXY, 0))
	dst := m.ID(topology.Coord{2, 1})
	a := mkMsg(1, 0, dst, 2)
	b := mkMsg(2, 0, dst, 2)
	h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(a, 0), 0)
	h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(a, 1), 1)
	h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(b, 0), 2)
	h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(b, 1), 3)
	h.run(0, 30)
	s := h.sends()
	if len(s) != 4 {
		t.Fatalf("sends = %d want 4", len(s))
	}
	order := []flow.MessageID{1, 1, 2, 2}
	for i, e := range s {
		if e.fl.Msg.ID != order[i] {
			t.Fatalf("send %d from msg %d want %d", i, e.fl.Msg.ID, order[i])
		}
	}
}

// LA mode regenerates the header: the outgoing header must carry the
// candidate set valid at the next router.
func TestLAHeaderRegeneration(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	alg := routing.NewDuato(m, cls)
	cfg := defCfg
	cfg.LookAhead = true
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, cfg, alg, selection.New(selection.StaticXY, 0))
	dst := m.ID(topology.Coord{3, 3})
	msg := mkMsg(1, 0, dst, 1)
	fl := mkFlit(msg, 0)
	msg.Route = alg.Route(node, dst, 0)
	h.r.EnqueueFlit(topology.PortMinus(0), 1, fl, 0)
	h.run(0, 10)
	s := h.sends()
	if len(s) != 1 {
		t.Fatalf("sends = %d", len(s))
	}
	nb, _ := m.Neighbor(node, s[0].port)
	want := alg.Route(nb, dst, 0)
	if !s[0].fl.Msg.Route.Equal(want) {
		t.Errorf("LA header route %v want %v", s[0].fl.Msg.Route, want)
	}
}

// When every adaptive VC of the preferred port is owned, a header falls
// back to the escape VC of the dimension-order port.
func TestEscapeFallback(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cls := routing.Class{NumVCs: 2, EscapeVCs: 1}
	alg := routing.NewDuato(m, cls)
	node := m.ID(topology.Coord{1, 1})
	cfg := Config{NumVCs: 2, BufDepth: 4, OutDepth: 2}
	h := newHarness(t, m, node, cfg, alg, selection.New(selection.StaticXY, 0))
	dst := m.ID(topology.Coord{3, 3})
	// Two long messages occupy the single adaptive VC (VC 1) of both +X
	// and +Y; keep them unfinished (no tail yet).
	block1 := mkMsg(1, 0, dst, 10)
	block2 := mkMsg(2, 0, m.ID(topology.Coord{1, 3}), 10)
	h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(block1, 0), 0)
	h.r.EnqueueFlit(topology.PortMinus(1), 0, mkFlit(block2, 0), 0)
	h.run(0, 6)
	// Now a third header: both adaptive VCs busy, must claim escape VC 0
	// on the +X (dimension-order) port.
	probe := mkMsg(3, 0, dst, 10)
	h.r.EnqueueFlit(topology.PortMinus(0), 1, mkFlit(probe, 0), 7)
	h.run(7, 14)
	found := false
	for _, e := range h.sends() {
		if e.fl.Msg.ID == 3 {
			found = true
			if e.port != topology.PortPlus(0) {
				t.Errorf("escape went out port %d want +X", e.port)
			}
		}
	}
	if !found {
		t.Fatal("blocked header never escaped")
	}
	// And it must sit on VC 0 downstream: check via BusyVCs bookkeeping.
	if h.r.BusyVCs(topology.PortPlus(0)) < 2 {
		t.Errorf("+X should have 2 busy VCs, got %d", h.r.BusyVCs(topology.PortPlus(0)))
	}
}

// PortView counters feed the traffic-sensitive selectors.
func TestPortViewCounters(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	h := newHarness(t, m, node, defCfg, alg, selection.New(selection.StaticXY, 0))
	px := topology.PortPlus(0)
	if h.r.UseCount(px) != 0 || h.r.LastUsed(px) != -1 || h.r.BusyVCs(px) != 0 {
		t.Fatal("fresh router counters not zeroed")
	}
	if h.r.Credits(px) != 4*20 {
		t.Fatalf("credits = %d want 80", h.r.Credits(px))
	}
	msg := mkMsg(1, 0, m.ID(topology.Coord{2, 1}), 2)
	h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, 0), 0)
	h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, 1), 1)
	h.run(0, 4)
	if h.r.BusyVCs(px) != 1 {
		t.Errorf("busy VCs mid-message = %d want 1", h.r.BusyVCs(px))
	}
	h.run(5, 12)
	if h.r.UseCount(px) != 2 {
		t.Errorf("use count = %d want 2", h.r.UseCount(px))
	}
	if h.r.LastUsed(px) != 5 {
		t.Errorf("last used = %d want 5", h.r.LastUsed(px))
	}
	if h.r.BusyVCs(px) != 0 {
		t.Errorf("busy VCs after tail = %d want 0", h.r.BusyVCs(px))
	}
	if h.r.Credits(px) != 4*20-2 {
		t.Errorf("credits = %d want 78", h.r.Credits(px))
	}
	if h.r.Occupancy() != 0 {
		t.Errorf("occupancy = %d want 0", h.r.Occupancy())
	}
}

// Buffer overflow (credit protocol violation) must panic loudly.
func TestOverflowPanics(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	cfg := Config{NumVCs: 4, BufDepth: 2, OutDepth: 2}
	h := newHarness(t, m, m.ID(topology.Coord{1, 1}), cfg, alg, selection.New(selection.StaticXY, 0))
	msg := mkMsg(1, 0, 0, 10)
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	for i := 0; i < 3; i++ {
		h.r.EnqueueFlit(topology.PortMinus(0), 0, mkFlit(msg, i+1), 0)
	}
}
