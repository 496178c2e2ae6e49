package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lapses/internal/core"
	"lapses/internal/selection"
	"lapses/internal/sweep"
	"lapses/internal/traffic"
)

// experimentOutput is TestRegistryOutputPinned's view of one experiment:
// its rendered table and, when it has a CSV form (nil otherwise), its CSV
// at reps replications.
func experimentOutput(ctx context.Context, r Runner, name string, reps int) (table, csvOut []byte, err error) {
	var tb, cb bytes.Buffer
	recs, err := r.RunByName(ctx, &tb, name, reps)
	if err != nil || recs == nil {
		return tb.Bytes(), nil, err
	}
	if err := csv.NewWriter(&cb).WriteAll(recs); err != nil {
		return nil, nil, err
	}
	return tb.Bytes(), cb.Bytes(), nil
}

func TestTable3CSV(t *testing.T) {
	t.Parallel()
	rows := []Table3Row{
		{MsgLen: 5, LookAhead: core.Result{AvgLatency: 50}, NoLookAhd: core.Result{AvgLatency: 60}},
		{MsgLen: 20, LookAhead: core.Result{AvgLatency: 75}, NoLookAhd: core.Result{Saturated: true}},
	}
	recs := table3Records(rows)
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
	recs := fig6Records([]Fig6Row{row})
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
	recs := fig5Records(f5)
	if len(recs) != 5 {
		t.Errorf("fig5 records = %d want 5", len(recs))
	}
	if recs[1][2] != "nola-det" || recs[1][3] != "" || recs[4][2] != "la-adapt" || recs[4][3] != "100.000" {
		t.Errorf("fig5 records = %v", recs)
	}
	t4 := []Table4Row{{
		Pattern: traffic.Uniform, Load: 0.2,
		MetaAdaptive: core.Result{AvgLatency: 140},
		MetaDet:      core.Result{AvgLatency: 90},
		Full:         core.Result{AvgLatency: 85},
		ES:           core.Result{AvgLatency: 85},
	}}
	recs = table4Records(t4)
	if recs[1][2] != "meta-adaptive" || recs[1][3] != "140.000" {
		t.Errorf("table4 records = %v", recs)
	}
}

// TestWriteCSVReps: replication must derive one seed per rep, keep rep
// 0's identifying columns, and append mean/stderr columns computed
// across the reps.
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
	var table bytes.Buffer
	recs, err := r.RunByName(context.Background(), &table, "table4", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{7, 7 + repSeedStride, 7 + 2*repSeedStride} {
		if !seeds[want] {
			t.Errorf("rep seed %d never ran (saw %v)", want, seeds)
		}
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
	// The rendered table is rep 0's.
	var rep0 bytes.Buffer
	RenderTable4(&rep0, []Table4Row{{Pattern: traffic.Uniform, Load: 0.1,
		MetaAdaptive: core.Result{AvgLatency: 100}, MetaDet: core.Result{AvgLatency: 100},
		Full: core.Result{AvgLatency: 100}, ES: core.Result{AvgLatency: 100}}})
	if !bytes.HasPrefix(table.Bytes(), rep0.Bytes()) {
		t.Errorf("rendered table is not rep 0's:\n%s", table.Bytes())
	}
	// reps=1 keeps the plain schema.
	recs, err = r.RunByName(context.Background(), &table, "table4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs[0]) != 5 {
		t.Fatalf("reps=1 header = %v", recs[0])
	}
	// Experiments without a record form run once and return none.
	if recs, err := r.RunByName(context.Background(), &table, "table5", 2); err != nil || recs != nil {
		t.Errorf("table5 at 2 reps = %v, %v; want no records", recs, err)
	}
}

// TestOnePassPerSeed: a table plus its CSV at three replications
// simulates the grid once per seed, with no memo cache to hide a rerun.
func TestOnePassPerSeed(t *testing.T) {
	t.Parallel()
	var sims atomic.Int64
	r := Runner{Fidelity: Quick, Seed: 1, Workers: 2, run: func(c core.Config) (core.Result, error) {
		sims.Add(1)
		return fakeRun(c)
	}}
	if _, err := r.RunByName(context.Background(), &bytes.Buffer{}, "table3", 3); err != nil {
		t.Fatal(err)
	}
	if got, want := sims.Load(), int64(3*2*len(table3Lengths)); got != want {
		t.Errorf("table3 at 3 reps simulated %d points, want %d (one pass per seed)", got, want)
	}
}

func TestWriteCSVByNameErrors(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	r := fakeRunner()
	if recs, err := r.RunByName(context.Background(), &buf, "table5", 1); err != nil || recs != nil {
		t.Errorf("table5 = %v, %v; want no record form", recs, err)
	}
	for _, name := range []string{"fig5", "table3", "fig6", "table4", "availability"} {
		recs, err := r.RunByName(context.Background(), &buf, name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) < 2 {
			t.Errorf("%s: %d records, want a header and at least one row", name, len(recs))
		}
	}
	if _, err := r.RunByName(context.Background(), &buf, "nope", 1); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// TestRecordsCountTheRenderedRun: with a memo cache, the record table
// comes from the run the table was rendered from, so its search_cycles
// add up to the cycles the rendered saturation-search line reports (a
// second pass served from the cache would record zero).
func TestRecordsCountTheRenderedRun(t *testing.T) {
	t.Parallel()
	r := Runner{Fidelity: Quick, Seed: 1, Workers: 2, Cache: sweep.NewCache(), run: kneeRun}
	var table bytes.Buffer
	recs, err := r.RunByName(context.Background(), &table, "resilience", 1)
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(recs[0], "search_cycles")
	var sum int64
	for _, rec := range recs[1:] {
		v, err := strconv.ParseInt(rec[col], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	at := strings.Index(table.String(), "[saturation search:")
	if at < 0 {
		t.Fatalf("no saturation-search line in:\n%s", table.String())
	}
	line := table.String()[at:]
	var probes int
	var cycles int64
	if _, err := fmt.Sscanf(line, "[saturation search: %d probes / %d simulated cycles", &probes, &cycles); err != nil {
		t.Fatalf("%v in %q", err, line)
	}
	if sum == 0 || sum != cycles {
		t.Errorf("records sum to %d search cycles, the rendered table reports %d", sum, cycles)
	}
}
