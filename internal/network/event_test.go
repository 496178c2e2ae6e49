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

// Event mode's express path claims cycle-exact timing for uncontended
// transits: a single message on an idle network must arrive at exactly the
// same cycle as in cycle mode — the closed-form pipeline budget of
// TestQuickContentionFreeFormula. Messages longer than the buffer depth
// exercise the fallback (express admission requires the full credit
// window), which must be just as exact because it is the unchanged
// cycle-accurate path.
func TestEventModeContentionFreeExact(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k1, k2 := 2+rng.Intn(6), 2+rng.Intn(6)
		m := topology.NewMesh(k1, k2)
		src := topology.NodeID(rng.Intn(m.N()))
		dst := topology.NodeID(rng.Intn(m.N()))
		if src == dst {
			return true
		}
		length := 1 + rng.Intn(30) // > BufDepth (20) exercises the fallback
		lookAhead := rng.Intn(2) == 0

		pat := &fixedPattern{src: src, dst: dst}
		cfg := testConfig(m, lookAhead, table.KindES, 0, pat, 0, seed)
		cfg.MsgLen = length
		cfg.EventMode = true
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
			t.Logf("seed %d: %v %d->%d len %d la=%v: event-mode latency %d want %d",
				seed, m, src, dst, length, lookAhead, got, want)
			return false
		}
		if int64(msg.Hops) != d {
			t.Logf("seed %d: hops %d want %d", seed, msg.Hops, d)
			return false
		}
		// The network must drain completely: no buffered flits, no stuck
		// express state, all credits home. The arrival is observed at the
		// final hop's admission cycle, while the worm's batched credits and
		// VC releases land up to ~Length+5 cycles later; give them a full
		// horizon to land.
		for i := 0; i < 64; i++ {
			n.Step()
		}
		if n.Occupancy() != 0 {
			t.Logf("seed %d: %d flits left buffered", seed, n.Occupancy())
			return false
		}
		if n.flits.count != 0 || n.credits.count != 0 {
			t.Logf("seed %d: events left in flight", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The express path must compute dateline crossings exactly like the SA
// stage does, so a wraparound route on a torus keeps the same budget and
// hop count in event mode.
func TestEventModeTorusExact(t *testing.T) {
	m := topology.NewTorus(6, 6)
	src := m.ID(topology.Coord{0, 0})
	dst := m.ID(topology.Coord{5, 5}) // distance 2 via wraparound
	pat := &fixedPattern{src: src, dst: dst}
	cls := routing.Class{NumVCs: 4, EscapeVCs: 2}
	cfg := Config{
		Mesh:      m,
		Router:    router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: true},
		LinkDelay: 1,
		Algorithm: routing.NewDuato(m, cls),
		Class:     cls,
		Table:     table.KindFull,
		Selection: 0,
		Pattern:   pat,
		MsgLen:    4,
		Seed:      1,
		EventMode: true,
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
	// 1 + 2*(4+1) + 3 + 3 = 17, same as cycle mode.
	if got != 17 {
		t.Errorf("torus event-mode latency %d want 17", got)
	}
	if msg.Hops != 2 {
		t.Errorf("hops = %d want 2 (wraparound)", msg.Hops)
	}
}

// A back-to-back stream of messages on one path must conserve flits and
// drain cleanly in event mode even as express and buffered transits
// interleave (the second worm often arrives while the first still holds
// downstream credits, forcing the fallback path mid-stream).
func TestEventModeStreamDrains(t *testing.T) {
	for _, la := range []bool{false, true} {
		m := topology.NewMesh(4, 4)
		pat := &fixedPattern{src: m.ID(topology.Coord{0, 0}), dst: m.ID(topology.Coord{3, 3})}
		cfg := testConfig(m, la, table.KindES, 0, pat, 0.02, 1)
		cfg.MsgLen = 8
		cfg.EventMode = true
		n := New(cfg)
		delivered := 0
		n.onArrive = func(mm *flow.Message, now int64) {
			delivered++
			if mm.ArriveTime <= mm.CreateTime {
				t.Fatalf("la=%v: non-causal arrival %d <= %d", la, mm.ArriveTime, mm.CreateTime)
			}
		}
		for i := 0; i < 4000; i++ {
			n.Step()
		}
		if delivered < 10 {
			t.Fatalf("la=%v: only %d messages delivered", la, delivered)
		}
		// Drain: stop injecting by stepping past the horizon with the
		// injector exhausted is not available here, so just verify the
		// conservation invariant instead: everything injected and not yet
		// delivered is buffered or on a wire.
		if n.Occupancy() == 0 && n.flits.count == 0 && n.QueuedMessages() > 0 {
			t.Fatalf("la=%v: queued messages with an empty network", la)
		}
	}
}
