package network

import (
	"fmt"
	"testing"

	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// runFingerprint captures every observable of a measured run, including
// the TotalCycles accounting (n.Now()) that fast-forward must keep in
// step with the unskipped kernel.
func runFingerprint(n *Network, p RunParams) string {
	r := n.Run(p)
	return fmt.Sprintf("lat=%v net=%v hops=%v thr=%v n=%d cyc=%d sat=%t reason=%q now=%d delivered=%d",
		r.Latency.Mean(), r.NetLatency.Mean(), r.Hops.Mean(), r.Throughput(),
		r.Latency.N(), r.Cycles, r.Saturated, r.SatReason, n.Now(), n.Delivered())
}

// Idle-cycle fast-forward must be observationally neutral: a run with it
// enabled produces the same statistics AND the same simulated-time
// accounting (TotalCycles = Now) as a run executing every cycle, while
// actually skipping a meaningful share of the cycles at a load this low.
func TestFastForwardMatchesNoSkipRun(t *testing.T) {
	m := topology.NewMesh(4, 4)
	rate := traffic.MessageRate(m, 0.02, 20)
	build := func() *Network {
		return New(testConfig(m, true, table.KindES, selection.LRU, traffic.New(traffic.Uniform, m), rate, 7))
	}
	p := RunParams{WarmupMessages: 50, MeasureMessages: 400, MaxCycles: 4_000_000}

	ff := build()
	got := runFingerprint(ff, p)
	if ff.SkippedCycles() == 0 {
		t.Fatal("fast-forward never skipped a cycle at a load this low; the test is vacuous")
	}

	noSkip := build()
	pNo := p
	pNo.NoFastForward = true
	want := runFingerprint(noSkip, pNo)
	if noSkip.SkippedCycles() != 0 {
		t.Fatalf("NoFastForward run still skipped %d cycles", noSkip.SkippedCycles())
	}
	if got != want {
		t.Fatalf("fast-forward diverged from the no-skip run\n got %s\nwant %s", got, want)
	}
	t.Logf("skipped %d of %d cycles", ff.SkippedCycles(), ff.Now())
}

// A run that exhausts its cycle budget while idle must stop at exactly
// the budget, not at the (beyond-budget) next wake — TotalCycles under
// fast-forward counts the same simulated span the unskipped kernel would
// have ticked through.
func TestFastForwardRespectsCycleBudget(t *testing.T) {
	m := topology.NewMesh(4, 4)
	// A finite trace delivers everything long before the budget, then the
	// network sits idle forever; asking for one more message than the
	// trace holds forces the run to the budget.
	trace, err := traffic.NewTrace([]traffic.TraceMsg{
		{At: 0, Src: 0, Dst: 5, Length: 4},
		{At: 10, Src: 3, Dst: 12, Length: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(m, true, table.KindES, selection.LRU, nil, 0, 3)
	cfg.Pattern = nil
	cfg.Trace = trace
	const budget = 12345
	for _, noFF := range []bool{false, true} {
		n := New(cfg)
		n.Run(RunParams{MeasureMessages: 3, MaxCycles: budget, NoFastForward: noFF})
		if n.Now() != budget {
			t.Errorf("noFF=%t: stopped at cycle %d, want the %d-cycle budget", noFF, n.Now(), budget)
		}
		if !noFF && n.SkippedCycles() == 0 {
			t.Error("fast-forward skipped nothing on an idle tail")
		}
	}
}

// An idle stretch is no deadlock: a message entering after a gap longer
// than the progress guard must run like any other, with fast-forward
// jumping the gap or every idle cycle stepped. The guard used to count
// the gap and report "no delivery progress" as soon as the next message
// entered, after delivering only the first.
func TestIdleGapRestartsProgressGuard(t *testing.T) {
	m := topology.NewMesh(4, 4)
	for _, gap := range []int64{60_000, 200_000} {
		trace, err := traffic.NewTrace([]traffic.TraceMsg{
			{At: 0, Src: 0, Dst: 5, Length: 20},
			{At: gap, Src: 3, Dst: 12, Length: 20},
			{At: 2 * gap, Src: 15, Dst: 0, Length: 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(m, true, table.KindES, selection.LRU, nil, 0, 3)
		cfg.Pattern = nil
		cfg.Trace = trace
		for _, noFF := range []bool{false, true} {
			r := New(cfg).Run(RunParams{MeasureMessages: 3, NoFastForward: noFF})
			if r.Saturated || r.Latency.N() != 3 {
				t.Errorf("gap %d, noFF=%t: delivered %d of 3, saturated=%t (%s)",
					gap, noFF, r.Latency.N(), r.Saturated, r.SatReason)
			}
		}
	}
}
