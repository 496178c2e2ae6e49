package core

import (
	"fmt"
	"math"
	"testing"

	"lapses/internal/fault"
	"lapses/internal/table"
)

// equivPoints are the configurations the observational-equivalence suite
// compares across kernels: a healthy mesh, a degraded topology, and a
// torus with wraparound routing — the three structurally distinct regimes
// the event kernel's express machinery must get right.
func equivPoints(t *testing.T) map[string]Config {
	healthy := DefaultConfig()
	healthy.Dims = []int{8, 8}
	healthy.Load = 0.2

	faulted := healthy
	plan, err := fault.Random(faulted.Mesh(), 3, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	faulted.Faults = fault.Static(plan)

	torus := DefaultConfig()
	torus.Dims = []int{6, 6}
	torus.Torus = true
	torus.EscapeVCs = 2
	torus.Table = table.KindFull
	torus.Load = 0.2

	return map[string]Config{"healthy": healthy, "faulted": faulted, "torus": torus}
}

// equivRun executes one adaptive-tier measurement: the controller stops at
// a 95% CI half-width of 5% of the mean, which is the equivalence budget
// the event kernel is held to.
func equivRun(t *testing.T, c Config, events bool) Result {
	t.Helper()
	c.EventMode = events
	c.Warmup, c.Measure = 500, 10000
	c.Auto = &AutoMeasure{RelTol: 0.05}
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("saturated below the saturation region: %s", res.SatReason)
	}
	return res
}

// TestEventModeObservationalEquivalence holds the event kernel to its
// contract: not bit-identical to the cycle kernel, but statistically
// indistinguishable — latency within the adaptive controller's combined
// CI, throughput within the controller's relative tolerance — on healthy,
// faulted, and torus configurations.
func TestEventModeObservationalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive-tier comparison runs in the full suite")
	}
	for name, cfg := range equivPoints(t) {
		t.Run(name, func(t *testing.T) {
			ref := equivRun(t, cfg, false)
			ev := equivRun(t, cfg, true)
			// Two independent estimators of the same mean: their
			// difference is covered by the sum of their CI half-widths.
			tol := ref.LatencyCI + ev.LatencyCI
			if d := math.Abs(ev.AvgLatency - ref.AvgLatency); d > tol {
				t.Errorf("event latency %.2f vs cycle %.2f: |Δ|=%.2f exceeds combined CI %.2f",
					ev.AvgLatency, ref.AvgLatency, d, tol)
			}
			if d := math.Abs(ev.Throughput - ref.Throughput); d > 0.05*ref.Throughput {
				t.Errorf("event throughput %.4f vs cycle %.4f beyond 5%%",
					ev.Throughput, ref.Throughput)
			}
			if ev.TotalCycles <= 0 || ev.MeasuredCycles <= 0 || ev.MeasuredCycles > ev.TotalCycles {
				t.Errorf("cycle accounting broken: measured %d of %d total",
					ev.MeasuredCycles, ev.TotalCycles)
			}
			if ev.SkippedCycles < 0 || ev.SkippedCycles > ev.TotalCycles {
				t.Errorf("skipped %d of %d total cycles", ev.SkippedCycles, ev.TotalCycles)
			}
		})
	}
}

// TestEventModeDeterministic pins the event kernel's reproducibility: for
// a fixed config the run is bit-identical with itself, even though it is
// only statistically equivalent to the cycle kernel.
func TestEventModeDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dims = []int{8, 8}
	cfg.Load = 0.25
	cfg.EventMode = true
	cfg.Warmup, cfg.Measure = 300, 3000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency != b.AvgLatency || a.Delivered != b.Delivered ||
		a.TotalCycles != b.TotalCycles || a.Throughput != b.Throughput {
		t.Errorf("event mode not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestEventModeKeyDistinct guards the sweep memo cache: an event-mode run
// is a different experiment than a cycle-mode run of the same point and
// must never alias its cache entry.
func TestEventModeKeyDistinct(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	b.EventMode = true
	if a.Key() == b.Key() {
		t.Fatal("event-mode config keys alias cycle-mode keys")
	}
	if fmt.Sprintf("%v", a.Key()) == "" {
		t.Fatal("empty key")
	}
}
