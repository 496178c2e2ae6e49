package core_test

import (
	"math"
	"strings"
	"testing"

	"lapses/internal/core"
	"lapses/internal/selection"
)

// autoBase is the shared adaptive-tier test point: an 8x8 mesh at a
// comfortable load, with a fixed-tier budget the adaptive tier takes as
// its ceiling.
func autoBase() core.Config {
	c := core.DefaultConfig()
	c.Dims = []int{8, 8}
	c.Selection = selection.StaticXY
	c.Load = 0.2
	c.Warmup, c.Measure = 300, 6000
	c.Seed = 3
	return c
}

// TestAutoConvergesEarlier is the tier's reason to exist: on a stable
// operating point the adaptive run must stop on CI convergence well
// before the fixed budget it takes as its ceiling, with the
// truncated estimate agreeing with the fixed-tier answer.
func TestAutoConvergesEarlier(t *testing.T) {
	t.Parallel()
	fixed, err := core.Run(autoBase())
	if err != nil {
		t.Fatal(err)
	}
	ac := autoBase()
	ac.AutoTol = 0.05
	auto, err := core.Run(ac)
	if err != nil {
		t.Fatal(err)
	}
	if !auto.Converged {
		t.Fatalf("auto run did not converge: %+v", auto)
	}
	// The stopping decision rides the serial delivery order, so a
	// repeat of the same configuration stops at the same message.
	if again, err := core.Run(ac); err != nil || again != auto {
		t.Fatalf("repeat auto run diverged (err %v):\n%+v\n%+v", err, auto, again)
	}
	budget := int64(ac.Warmup + ac.Measure)
	if auto.Delivered >= budget {
		t.Fatalf("auto delivered %d messages, fixed budget is %d — no early stop", auto.Delivered, budget)
	}
	if auto.TotalCycles >= fixed.TotalCycles {
		t.Fatalf("auto simulated %d cycles vs fixed %d — no cycle saving", auto.TotalCycles, fixed.TotalCycles)
	}
	if auto.CI95 <= 0 || auto.MeasuredCycles <= 0 {
		t.Fatalf("auto run missing CI/window: %+v", auto)
	}
	if auto.MeasuredCycles > auto.TotalCycles {
		t.Fatalf("measured window %d exceeds total %d", auto.MeasuredCycles, auto.TotalCycles)
	}
	// The CI actually met the tolerance it stopped on.
	if auto.CI95 > 0.05*auto.AvgLatency {
		t.Fatalf("reported CI %.3f above tolerance at mean %.1f", auto.CI95, auto.AvgLatency)
	}
	// Both tiers estimate the same steady state; the CI bounds the gap
	// loosely (different sample windows), so allow a few half-widths.
	if diff := auto.AvgLatency - fixed.AvgLatency; diff < -6*auto.CI95 || diff > 6*auto.CI95 {
		t.Fatalf("auto latency %.2f vs fixed %.2f: outside 6 half-widths (%.3f)",
			auto.AvgLatency, fixed.AvgLatency, auto.CI95)
	}
	// Fixed-tier runs must not grow adaptive fields.
	if fixed.Converged {
		t.Fatal("fixed-tier run reports Converged")
	}
	if fixed.MeasuredCycles != fixed.Cycles {
		t.Fatalf("fixed-tier MeasuredCycles %d != Cycles %d", fixed.MeasuredCycles, fixed.Cycles)
	}
}

// TestAutoConfigKey: the adaptive tier is part of the memo identity —
// opt-in never collides with the fixed tier, and different tolerances do
// not share a key.
func TestAutoConfigKey(t *testing.T) {
	t.Parallel()
	fixed := autoBase()
	a := autoBase()
	a.AutoTol = 0.05
	if fixed.Key() == a.Key() {
		t.Fatal("auto config shares the fixed tier's key")
	}
	c := autoBase()
	c.AutoTol = 0.02
	if a.Key() == c.Key() {
		t.Fatal("different tolerances share a key")
	}
}

// TestAutoValidate: AutoTol is 0 (the fixed tier) or a finite positive
// tolerance. A NaN tolerance never converges and keys by NaN's bits; +Inf
// stops the run at its first check.
func TestAutoValidate(t *testing.T) {
	t.Parallel()
	for _, tol := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := autoBase()
		bad.AutoTol = tol
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "AutoTol") {
			t.Errorf("AutoTol %g: want an error naming AutoTol, got %v", tol, err)
		}
	}
	for _, tol := range []float64{0, 0.05} {
		ok := autoBase()
		ok.AutoTol = tol
		if err := ok.Validate(); err != nil {
			t.Errorf("AutoTol %g rejected: %v", tol, err)
		}
	}
}
