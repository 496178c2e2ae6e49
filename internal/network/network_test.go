package network

import (
	"math"
	"math/rand"
	"testing"

	"lapses/internal/flow"
	"lapses/internal/router"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// oneEpoch is the Routes of a network with one fault epoch (healthy, or
// under a static plan alg already routes around), programmed from alg.
func oneEpoch(tk table.Kind, m *topology.Mesh, alg routing.Algorithm, cls routing.Class) []*table.Routes {
	return []*table.Routes{table.Program(tk, m, alg, cls)}
}

func testConfig(m *topology.Mesh, lookAhead bool, tk table.Kind, sel selection.Kind, pat traffic.Pattern, rate float64, seed int64) Config {
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	return Config{
		Mesh:      m,
		Router:    router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: lookAhead},
		LinkDelay: 1,
		Class:     cls,
		Routes:    oneEpoch(tk, m, routing.NewDuato(m, cls), cls),
		Selection: sel,
		Pattern:   pat,
		MsgRate:   rate,
		MsgLen:    20,
		Seed:      seed,
	}
}

// fixedPattern sends every message from src to dst; other nodes stay
// silent.
type fixedPattern struct{ src, dst topology.NodeID }

func (f *fixedPattern) Name() string { return "fixed" }
func (f *fixedPattern) Dest(src topology.NodeID, _ *rand.Rand) (topology.NodeID, bool) {
	return f.dst, src == f.src
}

// singleMessage runs one message through an idle network and returns its
// total latency.
func singleMessage(t *testing.T, lookAhead bool, msgLen int) int64 {
	t.Helper()
	m := topology.NewMesh(4, 4)
	pat := &fixedPattern{src: m.ID(topology.Coord{0, 0}), dst: m.ID(topology.Coord{3, 0})}
	cfg := testConfig(m, lookAhead, table.KindFull, selection.StaticXY, pat, 0, 1)
	cfg.MsgLen = msgLen
	n := New(cfg)
	msg := &flow.Message{ID: 0, Src: pat.src, Dst: pat.dst, Length: msgLen, CreateTime: 0}
	n.nextMsg = 1
	n.inject(msg)
	var arrived int64 = -1
	n.onArrive = func(m *flow.Message, now int64) { arrived = m.ArriveTime - m.CreateTime }
	for i := 0; i < 300 && arrived < 0; i++ {
		n.Step()
	}
	if arrived < 0 {
		t.Fatal("message never arrived")
	}
	if n.Occupancy() != 0 {
		t.Fatalf("flits left in network: %d", n.Occupancy())
	}
	if msg.Hops != 3 {
		t.Fatalf("hops = %d want 3", msg.Hops)
	}
	return arrived
}

// Contention-free latency must match the pipeline budget exactly.
// PROUD, d hops, length L: 1 (inject wire) + d*(5+1) + 4 (stages at the
// destination router before delivery) + (L-1) serialization.
// LA-PROUD: 1 + d*(4+1) + 3 + (L-1).
func TestContentionFreeLatencyExact(t *testing.T) {
	cases := []struct {
		la     bool
		msgLen int
		want   int64
	}{
		{false, 1, 23}, // 1 + 3*6 + 4
		{true, 1, 19},  // 1 + 3*5 + 3
		{false, 20, 42},
		{true, 20, 38},
	}
	for _, c := range cases {
		got := singleMessage(t, c.la, c.msgLen)
		if got != c.want {
			t.Errorf("lookAhead=%v len=%d: latency %d want %d", c.la, c.msgLen, got, c.want)
		}
	}
}

// Every generated message must be delivered exactly once, and the network
// must drain to empty.
func TestConservation(t *testing.T) {
	m := topology.NewMesh(8, 8)
	cfg := testConfig(m, true, table.KindES, selection.LRU, traffic.New(traffic.Uniform, m), 0.002, 7)
	n := New(cfg)
	delivered := map[flow.MessageID]int{}
	n.onArrive = func(msg *flow.Message, now int64) { delivered[msg.ID]++ }
	for i := 0; i < 20000; i++ {
		n.Step()
	}
	// Give in-flight messages time to drain, then account for everything
	// generated up to the end.
	for i := 0; i < 3000; i++ {
		n.Step()
	}
	created := int(n.nextMsg)
	if created < 100 {
		t.Fatalf("too few messages generated: %d", created)
	}
	for id, cnt := range delivered {
		if cnt != 1 {
			t.Fatalf("message %d delivered %d times", id, cnt)
		}
	}
	if int(n.Delivered())+n.QueuedMessages()+pendingInFlight(n) != created {
		t.Fatalf("conservation: delivered %d + pending %d != created %d",
			n.Delivered(), n.QueuedMessages(), created)
	}
}

// pendingInFlight counts messages injected but not yet delivered.
func pendingInFlight(n *Network) int {
	// Conservatively derived from flit occupancy: every in-flight
	// message holds at least one flit in some buffer.
	if n.Occupancy() > 0 {
		return int(n.nextMsg) - int(n.Delivered()) - n.QueuedMessages()
	}
	return 0
}

// Look-ahead must strictly reduce average latency at low load.
func TestLookAheadReducesLatency(t *testing.T) {
	m := topology.NewMesh(8, 8)
	rate := traffic.MessageRate(m, 0.1, 20)
	base := New(testConfig(m, false, table.KindES, selection.StaticXY, traffic.New(traffic.Uniform, m), rate, 11))
	la := New(testConfig(m, true, table.KindES, selection.StaticXY, traffic.New(traffic.Uniform, m), rate, 11))
	p := RunParams{WarmupMessages: 200, MeasureMessages: 2000}
	rBase := base.Run(p)
	rLA := la.Run(p)
	if rBase.Saturated || rLA.Saturated {
		t.Fatalf("unexpected saturation at low load: %v %v", rBase.SatReason, rLA.SatReason)
	}
	if rLA.Latency.Mean() >= rBase.Latency.Mean() {
		t.Errorf("LA latency %.2f not below PROUD %.2f", rLA.Latency.Mean(), rBase.Latency.Mean())
	}
	// The paper reports 12-15% at low load on 16x16; on 8x8 with ~7.5
	// router traversals the stage saving is bounded; accept > 5%.
	imp := (rBase.Latency.Mean() - rLA.Latency.Mean()) / rBase.Latency.Mean()
	if imp < 0.05 || imp > 0.30 {
		t.Errorf("LA improvement %.1f%% outside plausible band", imp*100)
	}
}

// The paper's storage claim, end to end: ES and full-table networks with
// identical seeds produce *identical* trajectories, not merely similar
// averages.
func TestESIdenticalToFullEndToEnd(t *testing.T) {
	m := topology.NewMesh(8, 8)
	rate := traffic.MessageRate(m, 0.4, 20)
	runOne := func(tk table.Kind) (float64, int64) {
		n := New(testConfig(m, true, tk, selection.LRU, traffic.New(traffic.Transpose, m), rate, 99))
		r := n.Run(RunParams{WarmupMessages: 200, MeasureMessages: 3000})
		return r.Latency.Mean(), r.Latency.N()
	}
	fullMean, fullN := runOne(table.KindFull)
	esMean, esN := runOne(table.KindES)
	if fullMean != esMean || fullN != esN {
		t.Errorf("ES (%.4f, %d) != full table (%.4f, %d)", esMean, esN, fullMean, fullN)
	}
}

// Determinism: identical seeds give identical results.
func TestDeterminism(t *testing.T) {
	m := topology.NewMesh(8, 8)
	rate := traffic.MessageRate(m, 0.3, 20)
	runOne := func() float64 {
		n := New(testConfig(m, true, table.KindES, selection.MaxCredit, traffic.New(traffic.BitReversal, m), rate, 5))
		return n.Run(RunParams{WarmupMessages: 100, MeasureMessages: 1500}).Latency.Mean()
	}
	if a, b := runOne(), runOne(); a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
}

// Deadlock freedom under stress: heavy adaptive transpose traffic keeps
// making progress (the run must end because measurement completes or the
// latency guard trips — never the progress guard).
func TestNoDeadlockUnderStress(t *testing.T) {
	m := topology.NewMesh(8, 8)
	rate := traffic.MessageRate(m, 0.9, 20)
	messages, budget := 2000, int64(150000)
	if testing.Short() {
		messages, budget = 400, 25000
	}
	for _, sel := range []selection.Kind{selection.StaticXY, selection.LRU, selection.MaxCredit} {
		n := New(testConfig(m, true, table.KindES, sel, traffic.New(traffic.Transpose, m), rate, 13))
		r := n.Run(RunParams{WarmupMessages: 100, MeasureMessages: messages, MaxCycles: budget})
		if r.SatReason == "no delivery progress (possible deadlock)" {
			t.Fatalf("%v: deadlock detected", sel)
		}
	}
}

// Saturation detection: a hopeless overload must be flagged, not run
// forever.
func TestSaturationDetected(t *testing.T) {
	m := topology.NewMesh(8, 8)
	rate := traffic.MessageRate(m, 3.0, 20) // 3x bisection capacity
	messages, budget := 3000, int64(0)
	if testing.Short() {
		// The verdict (saturated, not deadlocked) is clear long before
		// the default ~50k-cycle budget; cap it for the smoke run.
		messages, budget = 1000, 15000
	}
	n := New(testConfig(m, true, table.KindES, selection.StaticXY, traffic.New(traffic.Uniform, m), rate, 3))
	r := n.Run(RunParams{WarmupMessages: 100, MeasureMessages: messages, MaxCycles: budget})
	if !r.Saturated {
		t.Fatal("overloaded network not flagged as saturated")
	}
	// Guard against a vacuous short-mode pass (the explicit budget also
	// sets Saturated): the run must show genuine overload symptoms, not
	// a healthy network cut off early.
	if r.Latency.N() >= int64(messages) {
		t.Errorf("overloaded network delivered all %d measured messages", messages)
	}
}

// Latency grows monotonically-ish with load (allowing small noise).
func TestLatencyGrowsWithLoad(t *testing.T) {
	m := topology.NewMesh(8, 8)
	mean := func(load float64) float64 {
		rate := traffic.MessageRate(m, load, 20)
		n := New(testConfig(m, true, table.KindES, selection.StaticXY, traffic.New(traffic.Uniform, m), rate, 21))
		r := n.Run(RunParams{WarmupMessages: 200, MeasureMessages: 2500})
		if r.Saturated {
			t.Fatalf("saturated at load %v", load)
		}
		return r.Latency.Mean()
	}
	l2, l5, l8 := mean(0.2), mean(0.5), mean(0.8)
	if !(l2 < l5 && l5 < l8) {
		t.Errorf("latency not increasing: %.1f %.1f %.1f", l2, l5, l8)
	}
	if math.IsNaN(l2) {
		t.Error("NaN latency")
	}
}

// Torus networks with dateline escape channels deliver traffic without
// deadlock.
func TestTorusAdaptive(t *testing.T) {
	m := topology.NewTorus(6, 6)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 2}
	cfg := Config{
		Mesh:      m,
		Router:    router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: true},
		LinkDelay: 1,
		Class:     cls,
		Routes:    oneEpoch(table.KindFull, m, routing.NewDuato(m, cls), cls),
		Selection: selection.LRU,
		Pattern:   traffic.New(traffic.Uniform, m),
		MsgRate:   traffic.MessageRate(m, 0.5, 20),
		MsgLen:    20,
		Seed:      31,
	}
	n := New(cfg)
	r := n.Run(RunParams{WarmupMessages: 200, MeasureMessages: 2000, MaxCycles: 200000})
	if r.SatReason == "no delivery progress (possible deadlock)" {
		t.Fatal("torus deadlocked")
	}
	if r.Latency.N() == 0 {
		t.Fatal("no measurements")
	}
}
