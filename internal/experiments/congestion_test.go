package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"lapses/internal/core"
	"lapses/internal/selection"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// claimOvrPoint is the claim's overdriven bursty-uniform point: the
// 16x16 mesh under MMPP sources at offered load 0.9, run for a fixed
// 15000 cycles (the budget the run ends on, not the message count). Under
// this sustained overload the network tree-saturates and the accepted
// throughput becomes a property of the selection policy.
func claimOvrPoint(sel selection.Kind) core.Config {
	c := core.DefaultConfig()
	c.Seed = 1
	c.Pattern = traffic.Uniform
	c.Burst = congestionBurst()
	c.Selection = sel
	c.Load = 0.9
	c.SatLatency = 1e12
	c.MaxCycles = 15000
	c.Measure = 1 << 30
	return c
}

// Claim (congestion experiment headline): with bursty sources driving the
// network past saturation, notification-augmented selection sustains
// strictly higher accepted throughput than the best purely local
// heuristic — the downstream-occupancy signal steers worms around the
// backlog that local state cannot see. The simulation is deterministic,
// so the 1.05x bar is an exact regression threshold, not a statistical
// one (observed at this point: notify-max-credit 1.25x the best local;
// margins of 1.06-1.47x across seeds 1-3).
func TestClaimNotifySustainsBurstyThroughput(t *testing.T) {
	t.Parallel()
	locals := []selection.Kind{selection.LRU, selection.MaxCredit}
	notifies := []selection.Kind{selection.NotifyMaxCredit}
	if !testing.Short() {
		notifies = append(notifies, selection.NotifyLRU)
	}
	var grid []core.Config
	for _, sel := range append(append([]selection.Kind{}, locals...), notifies...) {
		grid = append(grid, claimOvrPoint(sel))
	}
	res := sweepClaims(t, grid...)
	bestLocal, bestNotify := 0.0, 0.0
	for i, sel := range locals {
		if thr := res[i].Throughput; thr > bestLocal {
			bestLocal = thr
		}
		t.Logf("%s: accepted %.5f", sel, res[i].Throughput)
	}
	for i, sel := range notifies {
		thr := res[len(locals)+i].Throughput
		if thr > bestNotify {
			bestNotify = thr
		}
		t.Logf("%s: accepted %.5f", sel, thr)
	}
	if bestLocal <= 0 || bestNotify <= 0 {
		t.Fatalf("zero accepted throughput: local %.5f notify %.5f", bestLocal, bestNotify)
	}
	if bestNotify <= 1.05*bestLocal {
		t.Errorf("notify selection accepted %.5f, best local %.5f: gain %.3f, want > 1.05",
			bestNotify, bestLocal, bestNotify/bestLocal)
	}
}

// TestCongestionQuick is the -short tier of the congestion experiment: a
// reduced workload list (bursty uniform, bursty hotspot) through the real
// simulator at Quick fidelity, pinning the machinery end to end — MMPP
// sources, notify selection, the overdriven column and the saturation
// searches — plus the CSV schema.
func TestCongestionQuick(t *testing.T) {
	t.Parallel()
	r := Runner{Fidelity: Quick, Seed: 1, Cache: testCache}
	all := CongestionWorkloads()
	var workloads []CongestionWorkload
	for _, w := range all {
		if w.Name == "bursty-uniform" || w.Name == "bursty-hotspot" {
			workloads = append(workloads, w)
		}
	}
	if len(workloads) != 2 {
		t.Fatalf("reduced workload list = %d entries", len(workloads))
	}
	rows, err := r.congestion(context.Background(), workloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, row := range rows {
		if row.Plan != nil {
			t.Fatalf("%s: unexpected fault plan", row.Workload.Name)
		}
		for _, pol := range CongestionPolicies {
			c := row.Cells[pol]
			if c == nil {
				t.Fatalf("%s/%s: missing cell", row.Workload.Name, pol)
			}
			if c.Lat.Saturated {
				t.Errorf("%s/%s: moderate-load latency point saturated at load %.2f",
					row.Workload.Name, pol, row.Workload.LatLoad)
			}
			if c.Ovr.Throughput <= 0 {
				t.Errorf("%s/%s: overdriven run accepted nothing", row.Workload.Name, pol)
			}
			if !c.Search.Converged {
				t.Errorf("%s/%s: saturation search did not converge", row.Workload.Name, pol)
			}
			if c.Sat.Throughput <= 0 || c.Search.Lo <= 0 {
				t.Errorf("%s/%s: degenerate saturation point (load %.3f, thr %.5f)",
					row.Workload.Name, pol, c.Search.Lo, c.Sat.Throughput)
			}
		}
		if gain := row.NotifyGain(); gain <= 0 {
			t.Errorf("%s: degenerate notify gain %.3f", row.Workload.Name, gain)
		}
	}

	recs := congestionRecords(rows)
	if want := 1 + len(rows)*len(CongestionPolicies); len(recs) != want {
		t.Fatalf("%d records, want %d", len(recs), want)
	}
	if recs[0][0] != "workload" || recs[0][7] != "policy" || recs[0][11] != "ovr_throughput" {
		t.Fatalf("header: %v", recs[0])
	}

	var render bytes.Buffer
	RenderCongestion(&render, rows)
	for _, want := range []string{"bursty-uniform", "notify-max-credit", "notify gain"} {
		if !strings.Contains(render.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestCongestionGridShape checks the declared grid through a scripted
// runner: every (workload, policy) contributes one moderate-load latency
// point, one fixed-budget overdriven point, and one converging saturation
// search; the fault row shares one link-only plan across its policies.
// The scripted simulator accepts offered load up to a knee at 0.3, inside
// every workload's search bracket.
func TestCongestionGridShape(t *testing.T) {
	t.Parallel()
	satRate := topology.New(false, 16, 16).SaturationInjectionRate()
	var mu sync.Mutex
	var got []core.Config
	r := Runner{Fidelity: Quick, Seed: 1, run: func(c core.Config) (core.Result, error) {
		mu.Lock()
		got = append(got, c)
		mu.Unlock()
		accepted := c.Load
		if accepted > 0.3 {
			accepted = 0.05
		}
		return core.Result{Throughput: accepted * satRate, AvgLatency: 50, TotalCycles: 1000, Delivered: 1}, nil
	}}
	rows, err := r.Congestion(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	workloads := CongestionWorkloads()
	if len(rows) != len(workloads) {
		t.Fatalf("got %d rows, want %d", len(rows), len(workloads))
	}
	lat, ovr := 0, 0
	for _, c := range got {
		switch {
		case c.MaxCycles == 0:
			lat++
			if c.Auto != nil {
				t.Fatalf("quick-tier latency point carries Auto: %+v", c.Auto)
			}
		case c.Measure == 1<<30:
			ovr++
			if c.MaxCycles != Quick.congestionOvrCycles() {
				t.Fatalf("overdriven point budget %d, want %d", c.MaxCycles, Quick.congestionOvrCycles())
			}
		default: // saturation probe
			if c.Auto != nil {
				t.Fatalf("saturation probe carries Auto: %+v", c.Auto)
			}
		}
		if c.Faults.FailsRouters() {
			t.Fatalf("congestion plans must be link-only, got %s", c.Faults)
		}
	}
	if want := len(workloads) * len(CongestionPolicies); lat != want || ovr != want {
		t.Fatalf("lat points %d, ovr points %d, want %d each", lat, ovr, want)
	}
	for _, row := range rows {
		if (row.Workload.FaultLinks > 0) != (row.Plan != nil) {
			t.Fatalf("%s: fault plan mismatch (links %d, plan %v)",
				row.Workload.Name, row.Workload.FaultLinks, row.Plan)
		}
		for _, pol := range CongestionPolicies {
			c := row.Cells[pol]
			if !c.Search.Converged {
				t.Fatalf("%s/%s: search did not converge", row.Workload.Name, pol)
			}
			if c.Search.Lo > 0.3+1e-9 || c.Search.Lo < 0.3-Quick.satTol()-1e-9 {
				t.Fatalf("%s/%s: search found knee at %.3f, scripted knee is 0.3",
					row.Workload.Name, pol, c.Search.Lo)
			}
			if c.Lat.AvgLatency != 50 {
				t.Fatalf("%s/%s: latency slot not scattered", row.Workload.Name, pol)
			}
		}
	}
}
