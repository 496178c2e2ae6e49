package network

import (
	"testing"

	"lapses/internal/flow"
	"lapses/internal/router"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

func traceConfig(m *topology.Mesh, tr *traffic.Trace, seed int64) Config {
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	return Config{
		Mesh:      m,
		Router:    router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: true},
		Class:     cls,
		Routes:    oneEpoch(table.KindES, m, routing.NewDuato(m, cls), cls),
		Selection: selection.LRU,
		Trace:     tr,
		MsgLen:    20,
		Seed:      seed,
	}
}

// A trace injects exactly its messages, at their times, and they all
// arrive.
func TestTraceDrivenInjection(t *testing.T) {
	m := topology.NewMesh(4, 4)
	tr, err := traffic.NewTrace([]traffic.TraceMsg{
		{At: 0, Src: 0, Dst: 15, Length: 4},
		{At: 5, Src: 15, Dst: 0, Length: 8},
		{At: 50, Src: 3, Dst: 12, Length: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := New(traceConfig(m, tr, 1))
	var arrivals []*flow.Message
	n.onArrive = func(msg *flow.Message, now int64) { arrivals = append(arrivals, msg) }
	for i := 0; i < 400; i++ {
		n.Step()
	}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d want 3", len(arrivals))
	}
	for _, msg := range arrivals {
		if msg.ArriveTime <= msg.CreateTime {
			t.Errorf("message %d has non-positive latency", msg.ID)
		}
		if msg.Hops != m.Distance(msg.Src, msg.Dst) {
			t.Errorf("message %d hops %d want %d", msg.ID, msg.Hops, m.Distance(msg.Src, msg.Dst))
		}
	}
	if int(n.nextMsg) != 3 {
		t.Errorf("created = %d want exactly the trace", n.nextMsg)
	}
	if n.Occupancy() != 0 {
		t.Errorf("network not drained: %d", n.Occupancy())
	}
}

// A trace-driven Run measures the designated message window.
func TestTraceRun(t *testing.T) {
	m := topology.NewMesh(4, 4)
	tr := traffic.StencilTrace(m, 10, 200, 8)
	n := New(traceConfig(m, tr, 2))
	run := n.Run(RunParams{WarmupMessages: 48, MeasureMessages: tr.Total() - 48})
	if run.Saturated {
		t.Fatalf("stencil trace saturated: %s", run.SatReason)
	}
	if run.Latency.N() != int64(tr.Total()-48) {
		t.Fatalf("measured %d want %d", run.Latency.N(), tr.Total()-48)
	}
	// Every stencil message is one hop: latency = 1-hop pipe + 7 flits +
	// injection, bounded well under an iteration period at this load.
	if run.Latency.Mean() < 10 || run.Latency.Mean() > 100 {
		t.Errorf("implausible stencil latency %.1f", run.Latency.Mean())
	}
	if run.Hops.Mean() != 1 {
		t.Errorf("stencil hops = %v want 1", run.Hops.Mean())
	}
}

// Trace runs are deterministic.
func TestTraceDeterminism(t *testing.T) {
	m := topology.NewMesh(4, 4)
	mk := func() float64 {
		tr := traffic.StencilTrace(m, 5, 100, 8)
		n := New(traceConfig(m, tr, 3))
		return n.Run(RunParams{MeasureMessages: tr.Total()}).Latency.Mean()
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("trace runs diverged: %v vs %v", a, b)
	}
}
