package sweep

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"lapses/internal/core"
	"lapses/internal/selection"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// scriptedSpec builds a spec whose probes are classified by a load
// threshold through a scripted runner: saturated iff load >= satAt. The
// runner charges a fixed cycle cost per probe so accounting is testable.
func scriptedSpec(lo, hi float64) BisectSpec {
	return BisectSpec{
		At: func(load float64) core.Config {
			c := core.DefaultConfig()
			c.Load = load
			return c
		},
		Lo: lo, Hi: hi, Tol: 0.02,
	}
}

func scriptedRunner(satAt float64) func(core.Config) (core.Result, error) {
	return func(c core.Config) (core.Result, error) {
		return core.Result{
			Saturated:   c.Load >= satAt,
			Throughput:  c.Load,
			TotalCycles: 1000,
		}, nil
	}
}

// TestBisectFindsThreshold: the search must bracket a known threshold to
// within Tol wherever it lies in (or near) the initial bracket.
func TestBisectFindsThreshold(t *testing.T) {
	t.Parallel()
	for _, satAt := range []float64{0.11, 0.25, 0.5, 0.73, 0.99} {
		res, err := Bisect(context.Background(), scriptedSpec(0.1, 1.0), Options{Runner: scriptedRunner(satAt)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("satAt=%.2f: not converged: %s", satAt, res)
		}
		if res.Hi-res.Lo > 0.02+1e-12 || res.Lo >= satAt || res.Hi < satAt {
			t.Fatalf("satAt=%.2f: bracket %s does not pin the threshold", satAt, res)
		}
		if res.LoResult.Saturated || res.LoResult.Throughput != res.Lo {
			t.Fatalf("satAt=%.2f: LoResult is not the sustained probe at Lo: %+v", satAt, res.LoResult)
		}
		if res.SimulatedCycles != int64(res.Probes)*1000 {
			t.Fatalf("satAt=%.2f: cycle accounting %d for %d probes", satAt, res.SimulatedCycles, res.Probes)
		}
		if res.Probes >= res.DensePoints {
			t.Fatalf("satAt=%.2f: %d probes vs %d dense points — no saving", satAt, res.Probes, res.DensePoints)
		}
	}
}

// TestBisectBracketExpansion: thresholds outside the initial bracket are
// reached by the bounded expansion, and hopeless ranges are reported
// un-converged instead of looping.
func TestBisectBracketExpansion(t *testing.T) {
	t.Parallel()
	// Below the initial Lo: expansion halves downward.
	res, err := Bisect(context.Background(), scriptedSpec(0.1, 1.0), Options{Runner: scriptedRunner(0.06)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Lo >= 0.06 || res.Hi < 0.06 {
		t.Fatalf("downward expansion: %s", res)
	}
	// Above the initial Hi: expansion doubles upward.
	res, err = Bisect(context.Background(), scriptedSpec(0.1, 1.0), Options{Runner: scriptedRunner(1.7)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Lo >= 1.7 || res.Hi < 1.7 {
		t.Fatalf("upward expansion: %s", res)
	}
	// Never saturates: un-converged, best sustained load reported.
	res, err = Bisect(context.Background(), scriptedSpec(0.1, 1.0), Options{Runner: scriptedRunner(math.Inf(1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Lo != res.Hi || res.LoResult.Saturated {
		t.Fatalf("never-saturating range: %s", res)
	}
	// Always saturates: un-converged, the floor is reported saturated.
	res, err = Bisect(context.Background(), scriptedSpec(0.1, 1.0), Options{Runner: scriptedRunner(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || !res.LoResult.Saturated {
		t.Fatalf("always-saturating range: %s", res)
	}
}

// satProbe8x8 is the real-simulator probe family the determinism and
// cycle-reduction tests search over: an 8x8 adaptive mesh under uniform
// traffic with a load-scaled cycle budget so saturated probes terminate
// by guard rather than by patience. Probes run the fixed tier: the
// saturation verdict is a fixed-horizon acceptance measurement, and
// keeping the horizon identical across every probe (and across the
// dense reference path) is what makes the verdicts comparable.
func satProbe8x8(load float64) core.Config {
	c := core.DefaultConfig()
	c.Dims = []int{8, 8}
	c.Selection = selection.StaticXY
	c.Pattern = traffic.Uniform
	c.Load = load
	c.MsgLen = 20
	c.Warmup, c.Measure = 200, 2000
	c.Seed = 5
	rate := traffic.MessageRate(c.Mesh(), load, c.MsgLen) * float64(c.Mesh().N())
	c.MaxCycles = int64(3*float64(c.Warmup+c.Measure)/rate) + 6000
	return c
}

func probe8x8Spec() BisectSpec {
	return BisectSpec{
		At: satProbe8x8, Lo: 0.1, Hi: 1.2, Tol: 0.02,
		// The acceptance-based classifier pins the knee independently of
		// each probe's cycle budget and measurement tier; with run-guard
		// classification alone, an overdriven open-loop run can still
		// deliver its (early-created) sample inside the budget and read
		// as sustained well past the real knee.
		Saturated: OfferedFracSaturated(topology.New(false, 8, 8), 0.9),
	}
}

// TestBisectDeterminism mirrors TestSweepDeterminism for the search: the
// same spec must produce the identical BisectResult (brackets, probe
// counts, cycle totals, and the Result bits at Lo) on 1 worker and on N,
// with fresh caches, across repeats.
func TestBisectDeterminism(t *testing.T) {
	t.Parallel()
	run := func(workers int) BisectResult {
		res, err := Bisect(context.Background(), probe8x8Spec(), Options{Workers: workers, Cache: NewCache()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	if !base.Converged {
		t.Fatalf("search did not converge: %s", base)
	}
	for _, workers := range []int{8, 1} {
		if got := run(workers); got != base {
			t.Fatalf("workers=%d diverged:\nserial   %+v\nparallel %+v", workers, base, got)
		}
	}
}

// TestBisectMemoCache: repeating a search against a shared cache must
// re-simulate nothing.
func TestBisectMemoCache(t *testing.T) {
	t.Parallel()
	cache := NewCache()
	first, err := Bisect(context.Background(), probe8x8Spec(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Bisect(context.Background(), probe8x8Spec(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached != second.Probes || second.SimulatedCycles != 0 {
		t.Fatalf("second search re-simulated: %s", second)
	}
	if second.Lo != first.Lo || second.Hi != first.Hi || second.LoResult != first.LoResult {
		t.Fatalf("cached search found a different point:\n%s\n%s", first, second)
	}
}

// TestBisectCycleReduction is the headline regression (and the CI
// bisect-smoke): on the 8x8 saturation search, bracketing + bisection
// must find the same saturation point as the dense-grid path the
// experiments used to run, for at most half the simulated cycles (the
// measured ratio is far larger; 2x is the regression floor).
func TestBisectCycleReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full dense-grid reference scan; CI runs it in the dedicated bisect-smoke step")
	}
	t.Parallel()
	bisected, err := Bisect(context.Background(), probe8x8Spec(), Options{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := SaturationScan(context.Background(), probe8x8Spec(), Options{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if !bisected.Converged || !grid.Converged {
		t.Fatalf("searches did not converge:\nbisect %s\ngrid   %s", bisected, grid)
	}
	// Both brackets contain the knee and are at most Tol wide, so their
	// Lo ends sit within two resolution steps of each other.
	if math.Abs(bisected.Lo-grid.Lo) > 2*0.02+1e-12 {
		t.Fatalf("saturation points disagree:\nbisect %s\ngrid   %s", bisected, grid)
	}
	if bisected.SimulatedCycles*2 > grid.SimulatedCycles {
		t.Fatalf("cycle reduction below 2x: bisect %d cycles vs dense grid %d (%.2fx)",
			bisected.SimulatedCycles, grid.SimulatedCycles,
			float64(grid.SimulatedCycles)/float64(bisected.SimulatedCycles))
	}
	t.Logf("bisect %s", bisected)
	t.Logf("grid   %s", grid)
	t.Logf("cycle reduction: %.2fx", float64(grid.SimulatedCycles)/float64(bisected.SimulatedCycles))
}

// TestBisectSpecValidation covers the spec error paths.
func TestBisectSpecValidation(t *testing.T) {
	t.Parallel()
	if _, err := Bisect(context.Background(), BisectSpec{Lo: 0, Hi: 1}, Options{}); err == nil {
		t.Error("nil At accepted")
	}
	spec := scriptedSpec(0.5, 0.1) // inverted bracket
	if _, err := Bisect(context.Background(), spec, Options{Runner: scriptedRunner(0.3)}); err == nil {
		t.Error("inverted bracket accepted")
	}
}

// TestBisectRoutesThroughExec: with Options.Exec set, every probe round
// must dispatch through the pluggable executor (the seam the
// lapses-serve client uses to serve bisection probes remotely), and the
// search result must match the in-process one bit for bit.
func TestBisectRoutesThroughExec(t *testing.T) {
	t.Parallel()
	base := Options{Runner: scriptedRunner(0.42)}
	want, err := Bisect(context.Background(), scriptedSpec(0.1, 1.0), base)
	if err != nil {
		t.Fatal(err)
	}
	var execCalls, execPoints atomic.Int64
	routed := base
	routed.Exec = func(ctx context.Context, grid []core.Config, opt Options) ([]Outcome, error) {
		execCalls.Add(1)
		execPoints.Add(int64(len(grid)))
		// Delegate to the in-process engine, as a real remote executor
		// delegates to a server running the same engine.
		inner := opt
		inner.Exec = nil
		return Run(ctx, grid, inner)
	}
	got, err := Bisect(context.Background(), scriptedSpec(0.1, 1.0), routed)
	if err != nil {
		t.Fatal(err)
	}
	if execCalls.Load() == 0 {
		t.Fatal("Bisect never consulted Options.Exec")
	}
	if int(execPoints.Load()) != got.Probes {
		t.Errorf("exec saw %d points, search accounted %d probes", execPoints.Load(), got.Probes)
	}
	if got.Lo != want.Lo || got.Hi != want.Hi || got.Converged != want.Converged || got.Probes != want.Probes {
		t.Errorf("routed search diverged: got %s want %s", got, want)
	}
}

// TestBisectAllMatchesBisect: searches run in lockstep must each find
// exactly what an independent Bisect finds — the probe loads of a search
// depend only on its own outcomes — whatever their shapes (downward and
// upward expansion, never and always saturating, ordinary knees), on any
// worker count, and the batch must take one executor call per round of
// its longest search.
func TestBisectAllMatchesBisect(t *testing.T) {
	t.Parallel()
	knees := []float64{0.06, 1.7, math.Inf(1), 0, 0.25, 0.73}
	specs := make([]BisectSpec, len(knees))
	for i := range specs {
		specs[i] = scriptedSpec(0.1, 1.0)
		at := specs[i].At
		specs[i].At = func(load float64) core.Config {
			c := at(load)
			c.Seed = int64(i) // selects the knee, and keeps searches' keys apart
			return c
		}
	}
	run := func(c core.Config) (core.Result, error) { return scriptedRunner(knees[c.Seed])(c) }
	// counted returns options whose executor counts its calls.
	counted := func(workers int, calls *int) Options {
		return Options{Workers: workers, Runner: run, Exec: func(ctx context.Context, grid []core.Config, opt Options) ([]Outcome, error) {
			*calls++
			opt.Exec = nil
			return Run(ctx, grid, opt)
		}}
	}
	for _, workers := range []int{1, 8} {
		var calls int
		got, err := BisectAll(context.Background(), specs, counted(workers, &calls))
		if err != nil {
			t.Fatal(err)
		}
		longest := 0
		for i, spec := range specs {
			var rounds int
			want, err := Bisect(context.Background(), spec, counted(workers, &rounds))
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Errorf("workers=%d knee %v: lockstep %+v\nalone %+v", workers, knees[i], got[i], want)
			}
			longest = max(longest, rounds)
		}
		if calls != longest {
			t.Errorf("workers=%d: %d executor calls, want %d (the longest search's rounds)", workers, calls, longest)
		}
	}
}
