package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"lapses/internal/core"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// TestResilienceQuick is the -short tier of the resilience experiment: a
// reduced grid (uniform traffic, 0 and 4 failed links) through the real
// simulator at Quick fidelity. It pins the qualitative claim the full
// experiment makes — adaptive routing sustains a higher saturation load
// than deterministic routing once links fail — and keeps the fault path
// and the bisection saturation search exercised on every CI run.
func TestResilienceQuick(t *testing.T) {
	t.Parallel()
	r := Runner{Fidelity: Quick, Seed: 1, Cache: testCache}
	rows, err := r.resilience(context.Background(), []traffic.Kind{traffic.Uniform}, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Plan != nil || rows[0].FaultLinks != 0 {
		t.Fatalf("zero-fault row malformed: %+v", rows[0])
	}
	if rows[1].Plan == nil || rows[1].Plan.NumLinks() != 4 {
		t.Fatalf("4-fault row malformed: plan %v", rows[1].Plan)
	}
	for _, row := range rows {
		if row.AdaptiveSat.Throughput <= 0 || row.DetSat.Throughput <= 0 {
			t.Fatalf("faults=%d: zero saturation throughput: %+v", row.FaultLinks, row)
		}
		if row.AdaptiveLat.Saturated {
			t.Fatalf("faults=%d: adaptive latency point saturated at load 0.2", row.FaultLinks)
		}
		for _, s := range []struct {
			name   string
			conv   bool
			probes int
			dense  int
			load   float64
		}{
			{"adaptive", row.AdaptiveSearch.Converged, row.AdaptiveSearch.Probes, row.AdaptiveSearch.DensePoints, row.AdaptiveSatLoad()},
			{"deterministic", row.DetSearch.Converged, row.DetSearch.Probes, row.DetSearch.DensePoints, row.DetSatLoad()},
		} {
			if !s.conv {
				t.Fatalf("faults=%d: %s saturation search did not converge", row.FaultLinks, s.name)
			}
			if s.load <= 0 {
				t.Fatalf("faults=%d: %s saturation load %v", row.FaultLinks, s.name, s.load)
			}
			// The search's reason to exist: far fewer probes than the
			// dense grid it replaces (the >= 2x cycle reduction itself is
			// pinned by TestBisectCycleReduction in internal/sweep).
			if s.probes >= s.dense {
				t.Fatalf("faults=%d: %s search probed %d points, dense grid is %d", row.FaultLinks, s.name, s.probes, s.dense)
			}
		}
	}
	if gain := rows[1].ThroughputGain(); gain <= 1.1 {
		t.Errorf("4 failed links: adaptive/deterministic throughput gain %.2f, want > 1.1", gain)
	}
	if rows[1].AdaptiveSatLoad() <= rows[1].DetSatLoad() {
		t.Errorf("4 failed links: adaptive saturation load %.3f not above deterministic %.3f",
			rows[1].AdaptiveSatLoad(), rows[1].DetSatLoad())
	}

	recs := resilienceRecords(rows)
	if want := 1 + 2*len(rows); len(recs) != want {
		t.Fatalf("%d records, want %d", len(recs), want)
	}
	if !strings.HasPrefix(strings.Join(recs[0], ","), "pattern,fault_links,fault_plan,policy,avg_latency,saturated,sat_load,sat_throughput,sat_converged") {
		t.Fatalf("header: %q", recs[0])
	}
}

// TestResilienceClaim asserts the experiment's headline result at full
// grid breadth: on the 16x16 mesh, the adaptive LAPSES router (Duato +
// ES + LRU) sustains a measurably higher saturation point than
// deterministic routing at every point with >= 4 failed links, on both
// patterns. The simulation is deterministic, so the 1.2x bar is an exact
// regression threshold, not a statistical one (observed gains with the
// bisection methodology: 1.27-3.01).
func TestResilienceClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience claim runs 12 saturation searches; TestResilienceQuick is the -short stand-in")
	}
	t.Parallel()
	r := Runner{Fidelity: Quick, Seed: 1, Cache: testCache}
	rows, err := r.resilience(context.Background(), ResiliencePatterns, []int{4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if gain := row.ThroughputGain(); gain <= 1.2 {
			t.Errorf("%s faults=%d: adaptive gain %.2f (adaptive %.4f vs deterministic %.4f), want > 1.2",
				row.Pattern, row.FaultLinks, gain, row.AdaptiveSat.Throughput, row.DetSat.Throughput)
		}
		if row.AdaptiveSatLoad() <= row.DetSatLoad() {
			t.Errorf("%s faults=%d: adaptive saturation load %.3f not above deterministic %.3f",
				row.Pattern, row.FaultLinks, row.AdaptiveSatLoad(), row.DetSatLoad())
		}
	}
}

// TestResilienceGridShape checks the declared grid through a scripted
// runner: every (pattern, count, policy) contributes one latency point
// at the moderate load plus one converging saturation search, and both
// policies of a row share the same fault plan. The scripted simulator
// accepts offered load up to a knee at 0.45, so the searches must
// bracket 0.45.
func TestResilienceGridShape(t *testing.T) {
	t.Parallel()
	satRate := topology.New(false, 16, 16).SaturationInjectionRate()
	var mu sync.Mutex
	var got []core.Config
	r := Runner{Fidelity: Quick, Seed: 1, run: func(c core.Config) (core.Result, error) {
		mu.Lock()
		got = append(got, c)
		mu.Unlock()
		// A hard knee at 0.45: full acceptance below it, a collapse
		// above, so the classifier flips exactly there for every
		// pattern's injecting fraction.
		accepted := c.Load
		if accepted > 0.45 {
			accepted = 0.2
		}
		return core.Result{Throughput: accepted * satRate, AvgLatency: 50, TotalCycles: 1000, Delivered: 1}, nil
	}}
	rows, err := r.Resilience(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(ResiliencePatterns) * len(ResilienceFaultCounts)
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	lat := 0
	for _, c := range got {
		if c.MaxCycles == 0 {
			lat++
			if c.Load != 0.2 {
				t.Fatalf("latency point at load %v, want 0.2", c.Load)
			}
			if c.Auto != nil {
				t.Fatalf("quick-tier latency point carries Auto: %+v", c.Auto)
			}
		} else if c.Auto != nil {
			t.Fatalf("saturation probe carries Auto (fixed-horizon probes required): %+v", c.Auto)
		}
		if c.Faults.FailsRouters() {
			t.Fatalf("resilience plans must be link-only, got %s", c.Faults)
		}
	}
	if want := wantRows * 2; lat != want {
		t.Fatalf("latency points: %d, want %d", lat, want)
	}
	for _, row := range rows {
		for name, s := range map[string]float64{"adaptive": row.AdaptiveSatLoad(), "deterministic": row.DetSatLoad()} {
			if s > 0.45+1e-9 || s < 0.45-Quick.satTol()-1e-9 {
				t.Fatalf("%s/%d/%s: search found knee at %.3f, scripted knee is 0.45", row.Pattern, row.FaultLinks, name, s)
			}
		}
		if !row.AdaptiveSearch.Converged || !row.DetSearch.Converged {
			t.Fatalf("%s/%d: search did not converge", row.Pattern, row.FaultLinks)
		}
	}
}
