package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lapses/internal/flow"
	"lapses/internal/router"
	"lapses/internal/routing"
	"lapses/internal/table"
	"lapses/internal/topology"
)

// Property: on an idle network, a single message's latency equals the
// closed-form pipeline budget:
//
//	1 (injection wire) + d*(S+1) + (S-1) + (L-1)
//
// where d is the hop count, S the router stage count (5 for PROUD, 4 for
// LA-PROUD), 1 the link delay, and L the message length. The destination
// router contributes S-1 cycles because delivery happens at its OUT stage.
// This generalizes the hand-checked cases in TestContentionFreeLatencyExact
// to arbitrary mesh sizes, endpoints and lengths.
func TestQuickContentionFreeFormula(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k1, k2 := 2+rng.Intn(6), 2+rng.Intn(6)
		m := topology.NewMesh(k1, k2)
		src := topology.NodeID(rng.Intn(m.N()))
		dst := topology.NodeID(rng.Intn(m.N()))
		if src == dst {
			return true
		}
		length := 1 + rng.Intn(30)
		lookAhead := rng.Intn(2) == 0
		tk := table.KindES
		if rng.Intn(2) == 0 {
			tk = table.KindFull
		}

		pat := &fixedPattern{src: src, dst: dst}
		cfg := testConfig(m, lookAhead, tk, 0, pat, 0, seed)
		cfg.MsgLen = length
		n := New(cfg)
		msg := &flow.Message{ID: 0, Src: src, Dst: dst, Length: length, CreateTime: 0}
		n.nextMsg = 1
		n.inject(msg)
		var got int64 = -1
		n.onArrive = func(mm *flow.Message, now int64) { got = mm.ArriveTime - mm.CreateTime }
		for i := 0; i < 2000 && got < 0; i++ {
			n.Step()
		}
		if got < 0 {
			t.Logf("seed %d: message never arrived", seed)
			return false
		}
		stages := int64(5)
		if lookAhead {
			stages = 4
		}
		d := int64(m.Distance(src, dst))
		want := 1 + d*(stages+1) + (stages - 1) + int64(length-1)
		if got != want {
			t.Logf("seed %d: %v %d->%d len %d la=%v: latency %d want %d",
				seed, m, src, dst, length, lookAhead, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The same budget holds on a torus, where wraparound shortens d.
func TestContentionFreeTorus(t *testing.T) {
	m := topology.NewTorus(6, 6)
	src := m.ID(topology.Coord{0, 0})
	dst := m.ID(topology.Coord{5, 5}) // distance 2 via wraparound
	pat := &fixedPattern{src: src, dst: dst}
	// Torus Duato routing needs the dateline pair of escape VCs, so the
	// mesh-oriented testConfig helper does not apply.
	cls := routing.Class{NumVCs: 4, EscapeVCs: 2}
	cfg := Config{
		Mesh:      m,
		Router:    router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: true},
		Class:     cls,
		Routes:    oneEpoch(table.KindFull, m, routing.NewDuato(m, cls), cls),
		Selection: 0,
		Pattern:   pat,
		MsgLen:    4,
		Seed:      1,
	}
	n := New(cfg)
	msg := &flow.Message{ID: 0, Src: src, Dst: dst, Length: 4, CreateTime: 0}
	n.nextMsg = 1
	n.inject(msg)
	var got int64 = -1
	n.onArrive = func(mm *flow.Message, now int64) { got = mm.ArriveTime - mm.CreateTime }
	for i := 0; i < 200 && got < 0; i++ {
		n.Step()
	}
	// 1 + 2*(4+1) + 3 + 3 = 17.
	if got != 17 {
		t.Errorf("torus latency %d want 17", got)
	}
	if msg.Hops != 2 {
		t.Errorf("hops = %d want 2 (wraparound)", msg.Hops)
	}
}
