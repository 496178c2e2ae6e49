package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"sync"
	"testing"

	"lapses/internal/core"
	"lapses/internal/selection"
	"lapses/internal/traffic"
)

func TestTable3CSV(t *testing.T) {
	t.Parallel()
	rows := []Table3Row{
		{MsgLen: 5, LookAhead: core.Result{AvgLatency: 50}, NoLookAhd: core.Result{AvgLatency: 60}},
		{MsgLen: 20, LookAhead: core.Result{AvgLatency: 75}, NoLookAhd: core.Result{Saturated: true}},
	}
	var buf bytes.Buffer
	if err := Table3CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1][0] != "5" || recs[1][1] != "50.000" {
		t.Errorf("row 1 = %v", recs[1])
	}
	// Saturated cell must be empty.
	if recs[2][2] != "" {
		t.Errorf("saturated latency cell = %q", recs[2][2])
	}
}

func TestFig6CSV(t *testing.T) {
	t.Parallel()
	// Synthetic row: no need to run the sweep to test serialization.
	row := Fig6Row{Pattern: traffic.Uniform, Load: 0.5, ByPSH: map[selection.Kind]core.Result{}}
	for i, psh := range Fig6PSHs {
		row.ByPSH[psh] = core.Result{AvgLatency: float64(100 + i), Throughput: 0.1}
	}
	var buf bytes.Buffer
	if err := Fig6CSV(&buf, []Fig6Row{row}); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+len(Fig6PSHs) {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1][2] != "static-xy" || recs[1][3] != "100.000" {
		t.Errorf("row = %v", recs[1])
	}
}

func TestFig5AndTable4CSV(t *testing.T) {
	t.Parallel()
	f5 := []Fig5Row{{
		Pattern: traffic.Transpose, Load: 0.3,
		NoLADet:   core.Result{Saturated: true},
		NoLAAdapt: core.Result{AvgLatency: 120},
		LADet:     core.Result{Saturated: true},
		LAAdapt:   core.Result{AvgLatency: 100},
	}}
	var buf bytes.Buffer
	if err := Fig5CSV(&buf, f5); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 5 {
		t.Errorf("fig5 lines = %d want 5", got)
	}
	t4 := []Table4Row{{
		Pattern: traffic.Uniform, Load: 0.2,
		MetaAdaptive: core.Result{AvgLatency: 140},
		MetaDet:      core.Result{AvgLatency: 90},
		Full:         core.Result{AvgLatency: 85},
		ES:           core.Result{AvgLatency: 85},
	}}
	buf.Reset()
	if err := Table4CSV(&buf, t4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "meta-adaptive") {
		t.Error("table4 csv missing scheme column")
	}
}

// TestWriteCSVReps: the replication writer must derive one seed per rep,
// keep rep 0's identifying columns, and append mean/stderr columns
// computed across the reps.
func TestWriteCSVReps(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	seeds := map[int64]bool{}
	r := Runner{Fidelity: Quick, Workers: 1, Seed: 7, run: func(c core.Config) (core.Result, error) {
		mu.Lock()
		seeds[c.Seed] = true
		mu.Unlock()
		// Latency varies with the seed so stderr is non-zero and exactly
		// predictable: rep index = (seed-7)/stride, latency 100+rep.
		rep := (c.Seed - 7) / repSeedStride
		return core.Result{AvgLatency: 100 + float64(rep), Throughput: 0.5, Delivered: 1}, nil
	}}
	var buf bytes.Buffer
	if err := r.WriteCSVReps(context.Background(), &buf, "table4", 3); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{7, 7 + repSeedStride, 7 + 2*repSeedStride} {
		if !seeds[want] {
			t.Errorf("rep seed %d never ran (saw %v)", want, seeds)
		}
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := recs[0]
	if header[len(header)-2] != "avg_latency_mean" || header[len(header)-1] != "avg_latency_stderr" {
		t.Fatalf("header = %v", header)
	}
	// Every data row: rep-0 value 100.000, mean 101 over {100,101,102},
	// stderr = stddev(1)/sqrt(3) = 0.5774.
	for _, rec := range recs[1:] {
		if rec[3] != "100.000" {
			t.Fatalf("rep-0 latency column = %q", rec[3])
		}
		if rec[len(rec)-2] != "101.0000" {
			t.Fatalf("mean = %q", rec[len(rec)-2])
		}
		if rec[len(rec)-1] != "0.5774" {
			t.Fatalf("stderr = %q", rec[len(rec)-1])
		}
	}
	// reps=1 falls back to the plain schema.
	buf.Reset()
	if err := r.WriteCSVReps(context.Background(), &buf, "table4", 1); err != nil {
		t.Fatal(err)
	}
	recs, err = csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs[0]) != 5 {
		t.Fatalf("reps=1 header = %v", recs[0])
	}
	// Experiments without a CSV form error cleanly.
	if err := r.WriteCSVReps(context.Background(), &buf, "table5", 2); err == nil {
		t.Error("table5 accepted for replication")
	}
}

func TestWriteCSVByNameErrors(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	r := fakeRunner()
	if err := r.WriteCSV(context.Background(), &buf, "table5"); err == nil {
		t.Error("table5 should have no CSV form")
	}
	for _, name := range []string{"fig5", "table3", "fig6", "table4", "availability"} {
		buf.Reset()
		if err := r.WriteCSV(context.Background(), &buf, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if recs, err := csv.NewReader(&buf).ReadAll(); err != nil || len(recs) < 2 {
			t.Errorf("%s: csv = %d records, err %v", name, len(recs), err)
		}
	}
	if err := r.WriteCSV(context.Background(), &buf, "nope"); err == nil {
		t.Error("expected error for unknown experiment")
	}
}
