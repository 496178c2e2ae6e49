package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain turns the test binary into the benchmark when the benchmark
// re-executes it as a child (set-up samples, fresh-process rounds).
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestDeclarationsMatchBenchmarkJSON holds the tables in this package and
// BENCHMARK.json to each other, both ways.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default is %d", decl.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		unique(w.Name)
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, d.Name, d.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	match := func(kind string, decl []jsonMetric, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(decl), kind, len(defs))
		}
		for i, d := range defs {
			unique(d.Name)
			j := decl[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the program %+v", kind, i, j, d)
			}
			switch {
			case bounded && (j.Bound == nil || *j.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json and the program differ, or lie outside (0, 0.25]", d.Name)
			case !bounded && j.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	match("end-to-end", decl.EndToEnd, endToEnd, true)
	match("per-layer", decl.PerLayer, perLayer, false)
}

func testOpts(t *testing.T, traced bool) runOpts {
	dir := t.TempDir()
	return runOpts{seconds: 0.01, out: dir,
		env: runEnv{seed: 7, z: sizing{small: true}, store: filepath.Join(dir, "store"), traced: traced}}
}

// TestWorkloadsAtTestScale runs every workload once on small inputs: each
// must pass its own checks and report every end-to-end metric, non-zero.
func TestWorkloadsAtTestScale(t *testing.T) {
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.Name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(def, testOpts(t, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m := res.Metrics[d.Name]; m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %v %q, want a positive number of %s", d.Name, m.Value, m.Unit, d.Unit)
				}
			}
		})
	}
}

// TestTracedRun traces the workload with the most hooks (job, worker,
// Runner and HTTP spans) and the one whose rounds come back from a child
// process: every per-layer metric is reported and the span file is
// well-formed.
func TestTracedRun(t *testing.T) {
	for _, name := range []string{"grid-cluster", "kernel-short"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o := testOpts(t, true)
			res, err := runWorkload(findWorkload(name), o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct { // includes checkTrace on the spans
				t.Error("traced run failed its checks")
			}
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s missing or in %q, want %s", d.Name, m.Unit, d.Unit)
				}
			}
			for _, must := range []string{"core.run_s", "network.ns_per_flit_hop", "core.construct_ms", "serve.store_put_ms_p50", "trace.spans"} {
				if !(res.Metrics[must].Value > 0) {
					t.Errorf("%s = %v, want positive", must, res.Metrics[must].Value)
				}
			}
			var tf traceFile
			data, err := os.ReadFile(filepath.Join(o.out, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if tf.Environment.GoVersion == "" || tf.Environment.StoreFS == "" {
				t.Errorf("trace file lacks its environment block: %+v", tf.Environment)
			}
			spans := make([]span, len(tf.Spans))
			names := map[string]bool{}
			for i, s := range tf.Spans {
				spans[i] = s.span
				names[s.Name] = true
				if s.SelfNS < 0 || s.SelfNS > s.End-s.Start {
					t.Errorf("span %d (%s): self time %d outside [0, %d]", s.ID, s.Name, s.SelfNS, s.End-s.Start)
				}
			}
			if err := checkTrace(spans); err != nil {
				t.Error(err)
			}
			for _, must := range []string{"workload", "round", "core.Run", "probe core"} {
				if !names[must] {
					t.Errorf("no %q span in the trace", must)
				}
			}
		})
	}
}

func TestSelfTimeAndTraceChecks(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: the union counts once
		{ID: 4, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	if err := checkTrace(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 25, 3: 30, 4: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d is %d, want %d", id, self[id], want)
		}
	}
	orphan := append([]span(nil), spans...)
	orphan[3].Parent = 9
	if checkTrace(orphan) == nil {
		t.Error("a span naming a missing parent passed")
	}
	outside := append([]span(nil), spans...)
	outside[3].End = 45
	if checkTrace(outside) == nil {
		t.Error("a child ending after its parent passed")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mv := func(v float64) metricValue { return metricValue{Value: v} }
	set := func(wall, rate, crc float64) *setResult {
		return &setResult{Workloads: map[string]*setEntry{
			"kernel-flow": {Correct: true, Attempted: 10,
				EndToEnd: map[string]metricValue{"wall_s": mv(wall), "points_per_s": mv(rate)},
				PerLayer: map[string]metricValue{"core.result_crc32": mv(crc), "core.run_s": mv(wall)}},
		}}
	}
	kind := func(vs []verdict, metric string) string {
		for _, v := range vs {
			if v.Metric == metric {
				return v.Kind
			}
		}
		return "absent"
	}
	old := set(1.0, 10, 1234)

	vs, ok := compareSets(old, set(1.0, 10, 1234))
	if !ok || kind(vs, "wall_s") != "ok" || kind(vs, "core.result_crc32") != "same" {
		t.Errorf("identical sets: ok=%v %v", ok, vs)
	}
	// wall_s worse and points_per_s better, both past the bound.
	vs, ok = compareSets(old, set(1.5, 15, 1234))
	if ok || kind(vs, "wall_s") != "regressed" || kind(vs, "points_per_s") != "improved" {
		t.Errorf("regression not caught: ok=%v %v", ok, vs)
	}
	// A digest change is flagged apart and does not by itself fail.
	vs, ok = compareSets(old, set(1.0, 10, 99))
	if !ok || kind(vs, "core.result_crc32") != "changed" {
		t.Errorf("digest change: ok=%v %v", ok, vs)
	}
	gone := set(1.0, 10, 1234)
	delete(gone.Workloads["kernel-flow"].EndToEnd, "wall_s")
	if vs, ok = compareSets(old, gone); ok || kind(vs, "wall_s") != "missing" {
		t.Errorf("vanished metric: ok=%v %v", ok, vs)
	}
	if vs, ok = compareSets(old, &setResult{Workloads: map[string]*setEntry{}}); ok || kind(vs, "*") != "missing" {
		t.Errorf("vanished workload: ok=%v %v", ok, vs)
	}
	failing := set(1.0, 10, 1234)
	failing.Workloads["kernel-flow"].Failed = 1
	if vs, ok = compareSets(old, failing); ok || kind(vs, "failed_frac") != "regressed" {
		t.Errorf("higher failed share: ok=%v %v", ok, vs)
	}
}
