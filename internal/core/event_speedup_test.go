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

// cyclesPerSec runs cfg once and returns simulated cycles per wall-clock
// second.
func cyclesPerSec(t *testing.T, cfg Config) float64 {
	t.Helper()
	start := time.Now()
	res, err := Run(cfg)
	el := time.Since(start).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("speedup point saturated: %s", res.SatReason)
	}
	return float64(res.TotalCycles) / el
}

// TestEventModeSpeedup pins the event-driven mode's reason to exist: at
// the load where fast-forward buys nothing, event mode must simulate at
// least 3x as many cycles per second as the cycle-accurate kernel. The two
// kernels run alternately, three times each, and each side keeps its best
// rep: a burst of contention from other work on the host then slows a rep
// of each side rather than every rep of one. Wall-clock assertions are
// meaningless under the race detector and too slow for -short, so both
// skip.
func TestEventModeSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock comparison; skipped under the race detector")
	}
	var cycle, event float64
	for i := 0; i < 3; i++ {
		cycle = max(cycle, cyclesPerSec(t, speedupPoint(false)))
		event = max(event, cyclesPerSec(t, speedupPoint(true)))
	}
	ratio := event / cycle
	t.Logf("cycle mode %.0f cycles/sec, event mode %.0f cycles/sec: %.2fx", cycle, event, ratio)
	if ratio < 3 {
		t.Errorf("event mode speedup %.2fx < 3x at 16x16 uniform load 0.05", ratio)
	}
}
