package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
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
		if row.Sat.Throughput <= 0 {
			t.Fatalf("%s/%s: zero saturation throughput", dimsString(row.Dims), row.Policy)
		}
		if !row.Search.Converged || row.SatLoad <= 0 || row.SatSustained.Throughput <= 0 {
			t.Fatalf("%s/%s: saturation search malformed: %s", dimsString(row.Dims), row.Policy, row.Search)
		}
		if row.Search.Probes >= row.Search.DensePoints {
			t.Fatalf("%s/%s: search probed %d points, dense grid is %d",
				dimsString(row.Dims), row.Policy, row.Search.Probes, row.Search.DensePoints)
		}
		if row.Policy == "adaptive" {
			adaptiveSat[dimsString(row.Dims)] = row.SatLoad
		}
	}
	// The architectural claim: on every mesh the adaptive router's
	// saturation load is at least the deterministic router's.
	for _, row := range rows {
		if row.Policy == "deterministic" && row.SatLoad > adaptiveSat[dimsString(row.Dims)]+1e-9 {
			t.Errorf("%s: deterministic saturation load %.3f above adaptive %.3f",
				dimsString(row.Dims), row.SatLoad, adaptiveSat[dimsString(row.Dims)])
		}
	}

	var buf bytes.Buffer
	if err := ScalingCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := 1 + len(rows); len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d", len(lines), want)
	}
	if lines[0] != "mesh,nodes,policy,sat_load,sat_throughput,sat_converged,overdriven_throughput" {
		t.Fatalf("CSV header: %q", lines[0])
	}
}
