package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"lapses/internal/core"
)

// TestScalingQuick is the -short tier of the scaling experiment: the
// reduced mesh axis through the real simulator at Quick fidelity: shape
// checks on every row plus the architectural claim across policies.
func TestScalingQuick(t *testing.T) {
	t.Parallel()
	r := Runner{Fidelity: Quick, Seed: 1}
	rows, err := r.Scaling(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 2 meshes x 2 policies at the quick tier.
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	adaptiveSat := map[string]float64{}
	for _, row := range rows {
		if row.Ovr.Throughput <= 0 {
			t.Fatalf("%s/%s: zero saturation throughput", dimsString(row.Dims), row.Policy)
		}
		if !row.Search.Converged || row.Search.Lo <= 0 || row.Sat.Throughput <= 0 {
			t.Fatalf("%s/%s: saturation search malformed: %s", dimsString(row.Dims), row.Policy, row.Search)
		}
		if row.Search.Probes >= row.Search.DensePoints {
			t.Fatalf("%s/%s: search probed %d points, dense grid is %d",
				dimsString(row.Dims), row.Policy, row.Search.Probes, row.Search.DensePoints)
		}
		if row.Policy == "adaptive" {
			adaptiveSat[dimsString(row.Dims)] = row.Search.Lo
		}
	}
	// The architectural claim: on every mesh the adaptive router's
	// saturation load is at least the deterministic router's.
	for _, row := range rows {
		if row.Policy == "deterministic" && row.Search.Lo > adaptiveSat[dimsString(row.Dims)]+1e-9 {
			t.Errorf("%s: deterministic saturation load %.3f above adaptive %.3f",
				dimsString(row.Dims), row.Search.Lo, adaptiveSat[dimsString(row.Dims)])
		}
	}

	recs := scalingRecords(rows)
	if want := 1 + len(rows); len(recs) != want {
		t.Fatalf("%d records, want %d", len(recs), want)
	}
	if h := strings.Join(recs[0], ","); h != "mesh,nodes,policy,sat_load,sat_throughput,sat_converged,overdriven_throughput" {
		t.Fatalf("header: %q", h)
	}
}

// TestScalingGridShape checks the declared grid through a scripted
// runner: every (mesh, policy) contributes one fixed-budget overdriven
// point at the overdrive load and one converging saturation search, and
// nothing else. The scripted simulator accepts offered load up to a knee
// at 0.45 on every mesh, inside the uniform search bracket.
func TestScalingGridShape(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var got []core.Config
	r := Runner{Fidelity: Quick, Seed: 1, run: func(c core.Config) (core.Result, error) {
		mu.Lock()
		got = append(got, c)
		mu.Unlock()
		accepted := c.Load
		if accepted > 0.45 {
			accepted = 0.2
		}
		return core.Result{Throughput: accepted * c.Mesh().SaturationInjectionRate(), AvgLatency: 50, TotalCycles: 1000, Delivered: 1}, nil
	}}
	rows, err := r.Scaling(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dims := r.scalingDims()
	if want := len(dims) * len(policies); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	type shape struct {
		mesh string
		alg  core.Alg
	}
	ovr, probes := map[shape]int{}, map[shape]int{}
	for _, c := range got {
		key := shape{dimsString(c.Dims), c.Algorithm}
		if c.Measure != 1<<30 { // saturation probe
			probes[key]++
			continue
		}
		ovr[key]++
		if c.MaxCycles != Quick.ovrCycles() || c.Load != scalingOvrLoad {
			t.Fatalf("overdriven point malformed: MaxCycles %d (want %d), load %v (want %v)",
				c.MaxCycles, Quick.ovrCycles(), c.Load, scalingOvrLoad)
		}
	}
	for i, row := range rows {
		// One overdriven point and one search per (mesh, policy): every
		// probe of the shape belongs to the row's search.
		key := shape{dimsString(row.Dims), policies[i%len(policies)].alg}
		if ovr[key] != 1 || probes[key] != row.Search.Probes {
			t.Fatalf("%s/%s: %d overdriven points and %d probes, want 1 and the search's %d",
				key.mesh, row.Policy, ovr[key], probes[key], row.Search.Probes)
		}
		if !row.Search.Converged {
			t.Fatalf("%s/%s: search did not converge", dimsString(row.Dims), row.Policy)
		}
		if row.Search.Lo > 0.45+1e-9 || row.Search.Lo < 0.45-Quick.satTol()-1e-9 {
			t.Fatalf("%s/%s: search found knee at %.3f, scripted knee is 0.45", dimsString(row.Dims), row.Policy, row.Search.Lo)
		}
		if row.Ovr.Throughput == 0 || row.Sat.Throughput == 0 {
			t.Fatalf("%s/%s: overdriven or saturation slot not scattered", dimsString(row.Dims), row.Policy)
		}
	}
}
