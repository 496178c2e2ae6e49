package core

import (
	"testing"
	"time"
)

// speedupPoint is the acceptance point from the event-mode issue: 16x16
// uniform at load 0.05 — high enough that idle-cycle fast-forward never
// fires (skipped_frac ~0.0003), low enough that most routers are quiescent
// when a flit arrives, which is exactly the regime the express path exists
// for.
func speedupPoint(events bool) Config {
	c := simPoint(0.05)
	c.EventMode = events
	return c
}

// cyclesPerSec runs cfg and returns simulated cycles per wall-clock
// second, best of reps to shed scheduler noise.
func cyclesPerSec(t *testing.T, cfg Config, reps int) float64 {
	t.Helper()
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		res, err := Run(cfg)
		el := time.Since(start).Seconds()
		if err != nil {
			t.Fatal(err)
		}
		if res.Saturated {
			t.Fatalf("speedup point saturated: %s", res.SatReason)
		}
		if cps := float64(res.TotalCycles) / el; cps > best {
			best = cps
		}
	}
	return best
}

// TestEventModeSpeedup pins the event-driven mode's reason to exist: at
// the load where fast-forward buys nothing, event mode must simulate at
// least 3x as many cycles per second as the cycle-accurate kernel.
// Wall-clock assertions are meaningless under the race detector and too
// slow for -short, so both skip.
func TestEventModeSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock comparison; skipped under the race detector")
	}
	cycle := cyclesPerSec(t, speedupPoint(false), 3)
	event := cyclesPerSec(t, speedupPoint(true), 3)
	ratio := event / cycle
	t.Logf("cycle mode %.0f cycles/sec, event mode %.0f cycles/sec: %.2fx", cycle, event, ratio)
	if ratio < 3 {
		t.Errorf("event mode speedup %.2fx < 3x at 16x16 uniform load 0.05", ratio)
	}
}
