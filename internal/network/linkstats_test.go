package network

import (
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

// scriptPattern replays a fixed list of (src, dst) messages: Dest pops the
// next destination for its source. Used for finite-workload tests.
type scriptPattern struct {
	bysrc map[topology.NodeID][]topology.NodeID
}

func (s *scriptPattern) Name() string { return "script" }
func (s *scriptPattern) Dest(src topology.NodeID, _ *rand.Rand) (topology.NodeID, bool) {
	q := s.bysrc[src]
	if len(q) == 0 {
		return src, false
	}
	d := q[0]
	s.bysrc[src] = q[1:]
	return d, true
}

// Flit conservation over links: after draining a finite workload, total
// link flit-traversals must equal sum over messages of hops x length.
func TestLinkFlitConservation(t *testing.T) {
	m := topology.NewMesh(6, 6)
	rng := rand.New(rand.NewSource(4))
	script := &scriptPattern{bysrc: map[topology.NodeID][]topology.NodeID{}}
	type rec struct{ src, dst topology.NodeID }
	var msgs []rec
	for i := 0; i < 150; i++ {
		src := topology.NodeID(rng.Intn(m.N()))
		dst := topology.NodeID(rng.Intn(m.N()))
		if src == dst {
			continue
		}
		script.bysrc[src] = append(script.bysrc[src], dst)
		msgs = append(msgs, rec{src, dst})
	}
	cfg := testConfig(m, true, table.KindES, selection.LRU, script, 0.02, 9)
	cfg.MsgLen = 6
	n := New(cfg)
	var delivered []*flow.Message
	n.onArrive = func(msg *flow.Message, now int64) { delivered = append(delivered, msg) }
	for i := 0; i < 30000 && len(delivered) < len(msgs); i++ {
		n.Step()
	}
	if len(delivered) != len(msgs) {
		t.Fatalf("delivered %d of %d", len(delivered), len(msgs))
	}
	// Drain any credits in flight, then check conservation.
	for i := 0; i < 10; i++ {
		n.Step()
	}
	if n.Occupancy() != 0 {
		t.Fatalf("network not drained: %d flits", n.Occupancy())
	}
	var want uint64
	for _, msg := range delivered {
		want += uint64(msg.Hops) * uint64(msg.Length)
		// And each message's hops must be minimal (adaptive minimal
		// routing never misroutes).
		if msg.Hops != m.Distance(msg.Src, msg.Dst) {
			t.Errorf("msg %d->%d took %d hops, distance %d", msg.Src, msg.Dst, msg.Hops, m.Distance(msg.Src, msg.Dst))
		}
	}
	if got := n.TotalLinkFlits(); got != want {
		t.Errorf("link flits %d want %d", got, want)
	}
}

// The ejection channels must carry exactly length flits per delivered
// message.
func TestEjectionAccounting(t *testing.T) {
	m := topology.NewMesh(4, 4)
	pat := &fixedPattern{src: 0, dst: 15}
	cfg := testConfig(m, true, table.KindES, selection.StaticXY, pat, 0.005, 2)
	cfg.MsgLen = 4
	n := New(cfg)
	for i := 0; i < 12000; i++ {
		n.Step()
	}
	var eject uint64
	for _, s := range n.LinkStats() {
		if s.Port == topology.PortLocal && s.From == 15 {
			eject = s.Flits
		}
	}
	inFlightFlits := uint64(n.Occupancy())
	want := uint64(n.Delivered()) * 4
	if eject != want {
		t.Errorf("ejection flits %d want %d (in flight %d)", eject, want, inFlightFlits)
	}
}

// The paper's explanation for Table 4: the meta-block mapping concentrates
// transpose traffic on cluster-boundary links, so its utilization
// imbalance must clearly exceed full-table routing's at equal load.
func TestMetaBlockBoundaryCongestion(t *testing.T) {
	m := topology.NewMesh(16, 16)
	messages := 4000
	if testing.Short() {
		messages = 1500
	}
	imbalance := func(tk table.Kind) float64 {
		cfg := testConfig(m, true, tk, selection.StaticXY, traffic.New(traffic.Transpose, m), traffic.MessageRate(m, 0.2, 20), 17)
		n := New(cfg)
		n.Run(RunParams{WarmupMessages: 200, MeasureMessages: messages})
		return n.LinkImbalance()
	}
	full := imbalance(table.KindFull)
	meta := imbalance(table.KindMetaBlock)
	if meta <= full*1.1 {
		t.Errorf("meta-block imbalance %.2f should clearly exceed full-table %.2f", meta, full)
	}
}

// Satellite audit: per-port useCount must agree exactly between cycle and
// event mode. Event mode counts worm transits in bulk (useCount += L) and
// express flits one by one, while the cycle pipeline counts per flit in
// the output stage; with deterministic routing every message crosses the
// same links in both modes, so after a full drain the per-link flit
// counters must be identical — these counters feed the congestion
// notifications, so a divergence would skew notify selection in one mode.
func TestEventCycleLinkStatsParity(t *testing.T) {
	m := topology.NewMesh(6, 6)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 0}
	// MsgLen 1 exercises the single-flit express path; 6 exercises worm
	// transits plus refused-worm unpacks under contention.
	for _, msgLen := range []int{1, 6} {
		counts := map[bool]map[linkKey]uint64{}
		for _, events := range []bool{false, true} {
			rng := rand.New(rand.NewSource(11))
			script := &scriptPattern{bysrc: map[topology.NodeID][]topology.NodeID{}}
			total := 0
			for i := 0; i < 200; i++ {
				src := topology.NodeID(rng.Intn(m.N()))
				dst := topology.NodeID(rng.Intn(m.N()))
				if src == dst {
					continue
				}
				script.bysrc[src] = append(script.bysrc[src], dst)
				total++
			}
			cfg := Config{
				Mesh:      m,
				Router:    router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: true},
				Class:     cls,
				Routes:    oneEpoch(table.KindES, m, routing.NewDimOrder(m, cls, nil), cls),
				Selection: selection.StaticXY,
				Pattern:   script,
				MsgRate:   0.05,
				MsgLen:    msgLen,
				Seed:      11,
				EventMode: events,
			}
			n := New(cfg)
			delivered := 0
			n.onArrive = func(msg *flow.Message, now int64) { delivered++ }
			for i := 0; i < 60000 && delivered < total; i++ {
				n.Step()
			}
			if delivered != total {
				t.Fatalf("events=%t len=%d: delivered %d of %d", events, msgLen, delivered, total)
			}
			for i := 0; i < 30; i++ {
				n.Step()
			}
			if n.Occupancy() != 0 {
				t.Fatalf("events=%t len=%d: not drained", events, msgLen)
			}
			counts[events] = map[linkKey]uint64{}
			for _, s := range n.LinkStats() {
				counts[events][linkKey{s.From, s.Port}] = s.Flits
			}
		}
		for k, cyc := range counts[false] {
			if ev := counts[true][k]; ev != cyc {
				t.Errorf("len=%d: link %d port %d: cycle %d flits, event %d", msgLen, k.node, k.port, cyc, ev)
			}
		}
	}
}

// Satellite bugfix: LinkStats utilizations are whole-run cumulative, so a
// warmup much longer than the measured window dilutes them; the windowed
// LinkStatsSince variant must report the window's true utilization.
func TestLinkStatsWindowUndilutedByWarmup(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cfg := testConfig(m, true, table.KindES, selection.StaticXY,
		&scriptPattern{bysrc: map[topology.NodeID][]topology.NodeID{}}, 0, 3)
	cfg.MsgLen = 4
	n := New(cfg)
	// "Warmup" ≫ measure: 20000 cycles in which nothing moves.
	for i := 0; i < 20000; i++ {
		n.Step()
	}
	snap := n.SnapshotLinks()
	windowStart := n.Now()
	// Then a short burst of real traffic: node 0 -> node 3 along the top
	// row, 10 messages of 4 flits.
	delivered := 0
	n.onArrive = func(msg *flow.Message, now int64) { delivered++ }
	for i := 0; i < 10; i++ {
		n.inject(&flow.Message{Src: 0, Dst: 3, Length: 4, CreateTime: n.Now()})
	}
	for i := 0; i < 3000 && delivered < 10; i++ {
		n.Step()
	}
	if delivered != 10 {
		t.Fatalf("delivered %d of 10", delivered)
	}
	window := float64(n.Now() - windowStart)
	cum := map[linkKey]LinkStat{}
	for _, s := range n.LinkStats() {
		cum[linkKey{s.From, s.Port}] = s
	}
	sinceN := 0
	for _, s := range n.LinkStatsSince(snap) {
		k := linkKey{s.From, s.Port}
		// No traffic preceded the snapshot, so window counts equal the
		// cumulative ones...
		if s.Flits != cum[k].Flits {
			t.Errorf("link %d port %d: window flits %d, cumulative %d", s.From, s.Port, s.Flits, cum[k].Flits)
		}
		// ...but the windowed utilization must divide by the window, not
		// the whole run.
		if want := float64(s.Flits) / window; s.Utilization != want {
			t.Errorf("link %d port %d: window utilization %g want %g", s.From, s.Port, s.Utilization, want)
		}
		if s.Flits > 0 {
			sinceN++
			// The cumulative figure is diluted by the idle warmup — at
			// least 5x here (20000 idle vs <3000 active cycles).
			if cum[k].Utilization*5 > s.Utilization {
				t.Errorf("link %d port %d: cumulative %g not diluted vs windowed %g", s.From, s.Port, cum[k].Utilization, s.Utilization)
			}
		}
	}
	if sinceN == 0 {
		t.Fatal("no loaded links in window")
	}
}

func TestLinkStatsShape(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cfg := testConfig(m, true, table.KindES, selection.StaticXY, traffic.New(traffic.Uniform, m), 0.01, 1)
	n := New(cfg)
	for i := 0; i < 3000; i++ {
		n.Step()
	}
	ls := n.LinkStats()
	// 4x4 mesh: 2*2*(4*3) = 48 directional links + 16 ejection channels.
	if len(ls) != 64 {
		t.Fatalf("stats entries = %d want 64", len(ls))
	}
	for _, s := range ls {
		if s.Utilization < 0 || s.Utilization > 1.0001 {
			t.Errorf("utilization out of range: %+v", s)
		}
	}
	if n.LinkImbalance() < 1 {
		t.Errorf("imbalance below 1: %v", n.LinkImbalance())
	}
}
