package experiments

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lapses/internal/core"
	"lapses/internal/selection"
	"lapses/internal/sweep"
	"lapses/internal/traffic"
)

// The experiment harness is exercised two ways: grid plumbing (point
// counts, scatter wiring, error and cancellation paths) through a fake
// runner that encodes each config into its Result, and the real 16x16
// network at tiny fidelity. The committed result shapes are validated by
// the claims tests in claims_test.go.

// fakeRun synthesizes a Result from the config so tests can verify every
// point landed in the right row slot without simulating.
func fakeRun(c core.Config) (core.Result, error) {
	la := 2.0
	if c.LookAhead {
		la = 1.0
	}
	return core.Result{
		AvgLatency: c.Load * 1000,
		AvgHops:    float64(c.MsgLen),
		Throughput: float64(c.Algorithm),
		NetLatency: float64(c.Table),
		CI95:       float64(c.Selection),
		P50:        la,
		Delivered:  1,
	}, nil
}

func fakeRunner() Runner { return Runner{Fidelity: Quick, Seed: 1, Workers: 4, run: fakeRun} }

func TestFig5GridShape(t *testing.T) {
	t.Parallel()
	rows, err := fakeRunner().Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, pat := range PaperPatterns {
		want += len(patternLoads(pat))
	}
	if len(rows) != want {
		t.Fatalf("rows = %d want %d", len(rows), want)
	}
	for _, r := range rows {
		for name, res := range map[string]core.Result{
			"NoLADet": r.NoLADet, "NoLAAdapt": r.NoLAAdapt, "LADet": r.LADet, "LAAdapt": r.LAAdapt,
		} {
			if res.AvgLatency != r.Load*1000 {
				t.Fatalf("%s/%.1f %s: scattered result for load %v", r.Pattern, r.Load, name, res.AvgLatency/1000)
			}
		}
		// Architecture axis: deterministic columns carry AlgXY, adaptive
		// ones AlgDuato; LA columns have the look-ahead marker.
		if r.NoLADet.Throughput != float64(core.AlgXY) || r.NoLAAdapt.Throughput != float64(core.AlgDuato) {
			t.Fatalf("%s/%.1f: algorithm columns scrambled", r.Pattern, r.Load)
		}
		if r.LADet.P50 != 1 || r.NoLADet.P50 != 2 {
			t.Fatalf("%s/%.1f: look-ahead columns scrambled", r.Pattern, r.Load)
		}
	}
}

func TestFig6GridShape(t *testing.T) {
	t.Parallel()
	rows, err := fakeRunner().Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.ByPSH) != len(Fig6PSHs) {
			t.Fatalf("%s/%.1f: %d heuristics want %d", r.Pattern, r.Load, len(r.ByPSH), len(Fig6PSHs))
		}
		for _, psh := range Fig6PSHs {
			res := r.ByPSH[psh]
			if res.CI95 != float64(psh) || res.AvgLatency != r.Load*1000 {
				t.Fatalf("%s/%.1f/%s: wrong point scattered", r.Pattern, r.Load, psh)
			}
		}
	}
}

func TestTable4GridShape(t *testing.T) {
	t.Parallel()
	rows, err := fakeRunner().Table4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, pat := range Table4Patterns {
		want += len(table4Loads(pat))
	}
	if len(rows) != want {
		t.Fatalf("rows = %d want %d", len(rows), want)
	}
	for _, r := range rows {
		for _, scheme := range table4Schemes {
			res := *scheme.Slot(&r)
			if res.NetLatency != float64(scheme.Kind) {
				t.Fatalf("%s/%.1f: column holds table kind %v want %v", r.Pattern, r.Load, res.NetLatency, scheme.Kind)
			}
		}
	}
}

func TestTable3GridShapeAndRender(t *testing.T) {
	t.Parallel()
	rows, err := fakeRunner().Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(table3Lengths) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.MsgLen != table3Lengths[i] || r.LookAhead.AvgHops != float64(r.MsgLen) {
			t.Errorf("row %d: msglen %d result %v", i, r.MsgLen, r.LookAhead.AvgHops)
		}
		if r.LookAhead.P50 != 1 || r.NoLookAhd.P50 != 2 {
			t.Errorf("row %d: LA columns swapped", i)
		}
	}
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Mesg. Len") {
		t.Error("render missing header")
	}
}

// TestPointErrorPropagates replaces the old mustRun-panic path: a failing
// point must surface as an error from the experiment, not a panic.
func TestPointErrorPropagates(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	r := fakeRunner()
	r.run = func(c core.Config) (core.Result, error) {
		if c.Pattern == traffic.Transpose && c.Load == 0.3 {
			return core.Result{}, boom
		}
		return fakeRun(c)
	}
	if _, err := r.Fig5(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Fig5 err = %v want boom", err)
	}
	if _, err := r.Fig6(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Fig6 err = %v want boom", err)
	}
	if _, err := r.Table4(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Table4 err = %v want boom", err)
	}
}

// TestExecSeamRoutesGrids proves Runner.Exec replaces in-process
// sweep.Run for every grid an experiment dispatches — the seam the
// -server client mode plugs into — and that a delegating Exec is
// output-identical to the in-process path.
func TestExecSeamRoutesGrids(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"fig5", "table3", "fig6", "table4"} {
		var direct bytes.Buffer
		if _, err := fakeRunner().RunByName(context.Background(), &direct, name, 1); err != nil {
			t.Fatalf("%s in-process: %v", name, err)
		}
		calls := 0
		r := fakeRunner()
		r.Exec = func(ctx context.Context, grid []core.Config, opt sweep.Options) ([]sweep.Outcome, error) {
			calls++
			return sweep.Run(ctx, grid, opt)
		}
		var routed bytes.Buffer
		if _, err := r.RunByName(context.Background(), &routed, name, 1); err != nil {
			t.Fatalf("%s via Exec: %v", name, err)
		}
		if calls == 0 {
			t.Errorf("%s: Exec never invoked", name)
		}
		if routed.String() != direct.String() {
			t.Errorf("%s: output differs between Exec and in-process runs", name)
		}
	}
}

func TestExperimentCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fakeRunner().Fig5(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Fig5 on cancelled ctx = %v", err)
	}
	if _, err := fakeRunner().RunByName(ctx, &bytes.Buffer{}, "table4", 1); !errors.Is(err, context.Canceled) {
		t.Errorf("RunByName on cancelled ctx = %v", err)
	}
}

// TestRunByNameRendersAllSweeps walks the registry through RunByName on
// a scripted simulator (every offered load accepted up to a knee at 0.3,
// inside every saturation search's bracket): each experiment renders,
// each record table has a header and at least one row, and each
// replicable column is a column of that header — a misspelt repCols
// entry otherwise surfaces only at -reps 2.
func TestRunByNameRendersAllSweeps(t *testing.T) {
	t.Parallel()
	r := Runner{Fidelity: Quick, Seed: 1, Workers: 4, run: kneeRun}
	for _, e := range registry {
		var buf bytes.Buffer
		recs, err := r.RunByName(context.Background(), &buf, e.name, 1)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s: no output", e.name)
		}
		if recs == nil {
			if len(e.repCols) > 0 {
				t.Errorf("%s: replicable columns %v without a record form", e.name, e.repCols)
			}
			continue
		}
		if len(recs) < 2 {
			t.Fatalf("%s: %d records; want a header and at least one row", e.name, len(recs))
		}
		for _, col := range e.repCols {
			if !slices.Contains(recs[0], col) {
				t.Errorf("%s: replicable column %q is not in the header %v", e.name, col, recs[0])
			}
		}
	}
}

// kneeRun is TestRunByNameRendersAllSweeps' scripted simulator: every
// offered load is accepted up to a knee at 0.3, inside every saturation
// search's bracket.
func kneeRun(c core.Config) (core.Result, error) {
	accepted := c.Load
	if accepted > 0.3 {
		accepted = 0.05
	}
	return core.Result{Throughput: accepted * c.Mesh().SaturationInjectionRate(), AvgLatency: 50, TotalCycles: 1000, Delivered: 1}, nil
}

// TestSearchesShareRounds: an experiment's saturation searches advance in
// lockstep — its fixed points take one executor call and each round of
// all its searches one more — and Workers bounds the probes too, so at
// Workers 1 no two simulations ever overlap.
func TestSearchesShareRounds(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	var calls, inFlight, peak atomic.Int64
	r := Runner{Fidelity: Quick, Seed: 1, Workers: 1, run: func(c core.Config) (core.Result, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(100 * time.Microsecond) // widen any overlap
		return kneeRun(c)
	}}
	r.Exec = func(ctx context.Context, grid []core.Config, opt sweep.Options) ([]sweep.Outcome, error) {
		calls.Add(1)
		return sweep.Run(ctx, grid, opt)
	}
	for _, e := range []struct {
		name     string
		searches func() ([]sweep.BisectResult, error)
	}{
		{"scaling", func() (s []sweep.BisectResult, err error) {
			rows, err := r.Scaling(ctx)
			for _, row := range rows {
				s = append(s, row.Search)
			}
			return s, err
		}},
		{"resilience", func() (s []sweep.BisectResult, err error) {
			rows, err := r.Resilience(ctx)
			for _, row := range rows {
				s = append(s, row.Cells[0].Search, row.Cells[1].Search)
			}
			return s, err
		}},
		{"congestion", func() (s []sweep.BisectResult, err error) {
			rows, err := r.Congestion(ctx)
			for _, row := range rows {
				for _, pol := range CongestionPolicies {
					s = append(s, row.Cells[pol].Search)
				}
			}
			return s, err
		}},
	} {
		calls.Store(0)
		searches, err := e.searches()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		// A search's rounds: one for both bracket ends, one per expansion
		// (one probe each), one per k-section round (3 probes each).
		longest := 0
		for _, s := range searches {
			expansions := s.Probes - 2 - 3*s.Rounds
			longest = max(longest, 1+expansions+s.Rounds)
		}
		if got := calls.Load(); got > int64(1+longest) {
			t.Errorf("%s: %d executor calls for %d searches, want at most 1 + %d (the longest search's rounds)",
				e.name, got, len(searches), longest)
		}
	}
	if p := peak.Load(); p > 1 {
		t.Errorf("Workers 1 ran %d simulations at once", p)
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation trend check; grid wiring runs in TestTable3GridShapeAndRender")
	}
	t.Parallel()
	r := Runner{Fidelity: Quick, Seed: 1, Cache: testCache}
	rows, err := r.Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The look-ahead benefit must decrease with message length
	// (Table 3's trend: 18% at 5 flits down to 6.5% at 50).
	if !(rows[0].Improvement() > rows[3].Improvement()) {
		t.Errorf("LA improvement should shrink with length: %v vs %v",
			rows[0].Improvement(), rows[3].Improvement())
	}
	for _, r := range rows {
		if r.Improvement() < 0 {
			t.Errorf("len %d: negative improvement %.1f", r.MsgLen, r.Improvement())
		}
	}
}

func TestTable5Counts(t *testing.T) {
	t.Parallel()
	rows := Table5(256, 2)
	byScheme := map[string]int{}
	for _, r := range rows {
		byScheme[r.Scheme] = r.Entries
	}
	if byScheme["full-table"] != 256 {
		t.Errorf("full = %d", byScheme["full-table"])
	}
	if byScheme["economical storage"] != 9 {
		t.Errorf("es = %d", byScheme["economical storage"])
	}
	if byScheme["interval"] != 5 {
		t.Errorf("interval = %d", byScheme["interval"])
	}
	if byScheme["meta-table (2-level)"] != 32 {
		t.Errorf("meta = %d", byScheme["meta-table (2-level)"])
	}
	rows3 := Table5(2048, 3)
	for _, r := range rows3 {
		if r.Scheme == "economical storage" && r.Entries != 27 {
			t.Errorf("3-D es = %d", r.Entries)
		}
	}
	var buf bytes.Buffer
	RenderTable5(&buf, rows)
	if !strings.Contains(buf.String(), "economical storage") {
		t.Error("render missing scheme")
	}
}

func TestRunByName(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	r := Runner{Fidelity: Quick, Seed: 1}
	if _, err := r.RunByName(context.Background(), &buf, "table5", 1); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output")
	}
	_, err := r.RunByName(context.Background(), &buf, "nonsense", 1)
	if err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error does not offer %q: %v", name, err)
		}
	}
}

func TestParseFidelity(t *testing.T) {
	t.Parallel()
	for _, s := range []string{"quick", "default", "paper"} {
		if _, err := ParseFidelity(s); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	// auto named the adaptive measurement tier, which is gone.
	for _, s := range []string{"x", "auto"} {
		if _, err := ParseFidelity(s); err == nil || !strings.Contains(err.Error(), `"`+s+`"`) {
			t.Errorf("%s: err=%v, want one naming it", s, err)
		}
	}
}

// TestFidelityApply: each fidelity's sample sizes, Paper's being section
// 2.2's 10000 warm-up and 400000 measured messages.
func TestFidelityApply(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		f               Fidelity
		warmup, measure int
	}{
		{Quick, 300, 3000},
		{Default, 2000, 30000},
		{Paper, 10000, 400000},
	} {
		c := tc.f.apply(core.DefaultConfig())
		if c.Warmup != tc.warmup || c.Measure != tc.measure {
			t.Errorf("fidelity %d: warmup %d, measure %d; want %d, %d",
				tc.f, c.Warmup, c.Measure, tc.warmup, tc.measure)
		}
	}
}

func TestPctOver(t *testing.T) {
	t.Parallel()
	a := core.Result{AvgLatency: 110}
	b := core.Result{AvgLatency: 100}
	p, ok := pctOver(a, b)
	if !ok || p != 10 {
		t.Errorf("pctOver = %v,%v want 10,true", p, ok)
	}
	if _, ok := pctOver(a, core.Result{Saturated: true}); ok {
		t.Error("saturated baseline must not produce a percentage")
	}
}

// Minimal one-point real-simulation run through the sweep machinery (the
// full grids run in claims_test.go and the benchmarks).
func TestFig6SinglePoint(t *testing.T) {
	t.Parallel()
	c := Runner{Fidelity: Quick, Seed: 1}.base()
	c.Pattern = traffic.Transpose
	c.Load = 0.2
	c.Selection = selection.LRU
	res := sweepClaims(t, c)[0]
	if res.Saturated {
		t.Fatalf("transpose 0.2 saturated: %s", res.SatReason)
	}
	if res.AvgLatency < 50 || res.AvgLatency > 300 {
		t.Errorf("implausible latency %v", res.AvgLatency)
	}
}
