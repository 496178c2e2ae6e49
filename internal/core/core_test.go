package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lapses/internal/fault"
	"lapses/internal/flow"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// smoke returns a fast small-mesh config.
func smoke() Config {
	c := DefaultConfig()
	c.Dims, c.Warmup, c.Measure = []int{8, 8}, 200, 3000
	return c
}

func TestRunSmoke(t *testing.T) {
	c := smoke()
	c.Load = 0.2
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("saturated at load 0.2: %s", res.SatReason)
	}
	if res.Delivered != int64(c.Measure) {
		t.Errorf("delivered %d want %d", res.Delivered, c.Measure)
	}
	// 8x8 mesh: avg distance ~5.33, LA-PROUD ~5 cycles/hop + 19 flits.
	if res.AvgLatency < 30 || res.AvgLatency > 200 {
		t.Errorf("implausible latency %v", res.AvgLatency)
	}
	if res.AvgHops < 4 || res.AvgHops > 7 {
		t.Errorf("implausible hops %v", res.AvgHops)
	}
	if res.Throughput <= 0 {
		t.Error("zero throughput")
	}
	if res.LatencyString() == "Sat." {
		t.Error("unsaturated run prints Sat.")
	}
}

func TestDefaultsMatchPaperTable2(t *testing.T) {
	c := DefaultConfig()
	if len(c.Dims) != 2 || c.Dims[0] != 16 || c.Dims[1] != 16 {
		t.Error("default mesh is not 16x16")
	}
	if c.VCs != 4 || c.MsgLen != 20 || c.BufDepth != 20 || c.LinkDelay != 1 {
		t.Error("defaults do not match Table 2")
	}
	p := c.PaperFidelity()
	if p.Warmup != 10000 || p.Measure != 400000 {
		t.Error("paper fidelity sample sizes wrong")
	}
}

func TestValidation(t *testing.T) {
	c := smoke()
	c.Dims = nil
	if _, err := Run(c); err == nil {
		t.Error("nil dims accepted")
	}
	c = smoke()
	c.Load = -1
	if _, err := Run(c); err == nil {
		t.Error("negative load accepted")
	}
	c = smoke()
	c.Table = table.KindInterval
	c.Algorithm = AlgDuato
	if _, err := Run(c); err == nil {
		t.Error("interval+adaptive accepted")
	}
	c = smoke()
	c.Table = table.KindMetaBlock
	c.Dims = []int{4, 4, 4}
	if _, err := Run(c); err == nil {
		t.Error("meta table on 3-D accepted")
	}
}

// TestIntervalValidateOrRun: every interval-table configuration over
// the deterministic algorithms, and every algorithm over ES tables, in
// one to three dimensions, mesh and torus, healthy and degraded, must
// either be rejected by Validate or run — routing.NewDimOrder and the
// turn models panic on dimensions they are not defined for, and Validate
// is what keeps a config from reaching them. The rejection must name what
// works. (What an interval table cannot express routes like any other
// table here; table.Verify, over every combination Validate accepts, is
// what refuses it.)
func TestIntervalValidateOrRun(t *testing.T) {
	ran := 0
	for _, dims := range [][]int{{8}, {4, 4}, {3, 3, 3}} {
		for _, torus := range []bool{false, true} {
			for _, alg := range Algs {
				for _, tb := range []table.Kind{table.KindInterval, table.KindES} {
					if tb == table.KindInterval && !alg.Deterministic() {
						continue
					}
					for _, damage := range []string{"healthy", "faults", "schedule"} {
						if damage != "healthy" && len(dims) == 1 && !torus {
							continue // any failed link disconnects a line
						}
						c := smoke()
						c.Dims, c.Torus, c.Algorithm, c.Table = dims, torus, alg, tb
						c.Warmup, c.Measure, c.Load = 10, 50, 0.05
						var err error
						switch damage {
						case "faults":
							var p *fault.Plan
							p, err = fault.Random(c.Mesh(), 1, 0, 7)
							c.Faults = fault.Static(p)
						case "schedule":
							c.Faults, err = fault.ParseSchedule(c.Mesh(), "0-1@100:200")
						}
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%s %s/%s on %s", damage, alg, tb, c.Mesh())
						if verr := c.Validate(); verr != nil {
							if !strings.Contains(verr.Error(), "2-D mesh") {
								t.Errorf("%s: rejection does not say what works: %v", name, verr)
							}
							continue
						}
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Errorf("%s: passed Validate, then panicked: %v", name, r)
								}
							}()
							if _, err := Run(c); err != nil {
								t.Errorf("%s: passed Validate, then failed: %v", name, err)
							}
							if tb == table.KindInterval {
								ran++
							}
						}()
					}
				}
			}
		}
	}
	if ran == 0 {
		t.Error("Validate rejected every interval configuration")
	}
	c := smoke()
	c.Table, c.Algorithm = table.KindInterval, AlgYX
	if err := c.Validate(); err != nil {
		t.Errorf("the combination the rejection recommends is itself rejected: %v", err)
	}
}

// TestShapeLimitsValidateOrRun is TestIntervalValidateOrRun's neighbour
// for the limits that size or bound a run rather than route it: one to
// five dimensions (flow.MaxCandidates bounds an adaptive route set, the
// arbiters bound ports x VCs at 64), 1 to 8 VCs, zero load with and
// without a cycle budget, a negative warm-up — on mesh and torus. Every
// case is either rejected by Validate, naming the field, or runs; and it
// runs twice in a row, so the second pass goes through the arena the first
// one returned (or, after a rejection, finds the free list as it was).
func TestShapeLimitsValidateOrRun(t *testing.T) {
	ran, rejected := 0, 0
	for _, dims := range [][]int{{8}, {4, 4}, {3, 3, 3}, {3, 3, 3, 3}, {2, 2, 2, 2, 2}} {
		for _, torus := range []bool{false, true} {
			for _, vcs := range []int{1, 4, 8} {
				for _, load := range []float64{0, 0.2} {
					for _, budget := range []int64{0, 500} {
						for _, warmup := range []int{-1, 0} {
							c := smoke()
							c.Dims, c.Torus, c.VCs, c.Load, c.MaxCycles, c.Warmup = dims, torus, vcs, load, budget, warmup
							c.Measure = 40
							if len(dims) > flow.MaxCandidates {
								c.Algorithm = AlgXY // so that five dimensions run at all
							}
							name := fmt.Sprintf("%s %s vcs=%d load=%g budget=%d warmup=%d", c.Algorithm, c.Mesh(), vcs, load, budget, warmup)
							if verr := c.Validate(); verr != nil {
								rejected++
								named := false
								for _, field := range []string{"Warmup", "Load", "VCs", "Dims"} {
									named = named || strings.Contains(verr.Error(), field)
								}
								if !named {
									t.Errorf("%s: rejection names no field: %v", name, verr)
								}
								continue
							}
							func() {
								defer func() {
									if r := recover(); r != nil {
										t.Errorf("%s: passed Validate, then panicked: %v", name, r)
									}
								}()
								first, err := Run(c)
								if err != nil {
									t.Errorf("%s: passed Validate, then failed: %v", name, err)
									return
								}
								again, err := Run(c)
								if err != nil || again != first {
									t.Errorf("%s: second run in a row differs: %+v (err %v), first %+v", name, again, err, first)
								}
								ran++
							}()
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases ran twice, %d were rejected", ran, rejected)
	if ran == 0 || rejected == 0 {
		t.Errorf("%d cases ran and %d were rejected; the matrix should do both", ran, rejected)
	}
	// The gaps, each by name and limit.
	for _, tc := range []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) { c.Load = 0 }, "Load 0 needs a Trace or MaxCycles"},
		{func(c *Config) { c.Dims = []int{2, 2, 2, 2, 2} }, "at most 4 dimensions"},
		{func(c *Config) { c.Dims, c.VCs = []int{3, 3, 3, 3}, 8 }, "ports x VCs"},
		{func(c *Config) { c.Warmup = -5 }, "Warmup -5"},
		{func(c *Config) { c.MsgLen = 0 }, "MsgLen 0 < 1"},
		{func(c *Config) { c.LinkDelay = 0 }, "LinkDelay 0 < 1"},
		{func(c *Config) { c.BufDepth = 0 }, "BufDepth 0 < 1"},
		{func(c *Config) { c.OutDepth = 0 }, "OutDepth 0 < 1"},
		{func(c *Config) { c.Dims, c.Algorithm, c.VCs = []int{8}, AlgXY, 12 }, "VCs 12 outside [1, 8]"},
	} {
		c := smoke()
		tc.mut(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want a Validate error containing %q, got %v", tc.want, err)
		}
	}
}

func TestAlgParseRoundTrip(t *testing.T) {
	for _, a := range Algs {
		got, err := ParseAlg(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v failed", a)
		}
	}
	if _, err := ParseAlg("nope"); err == nil {
		t.Error("expected error")
	}
	if !AlgXY.Deterministic() || AlgDuato.Deterministic() {
		t.Error("Deterministic() wrong")
	}
}

// Every (algorithm, table, selector) combination the paper exercises must
// run without panic on a small mesh.
func TestMatrixOfConfigurations(t *testing.T) {
	algs := []Alg{AlgXY, AlgDuato, AlgNorthLast}
	tables := []table.Kind{table.KindFull, table.KindES, table.KindMetaRow, table.KindMetaBlock}
	sels := []selection.Kind{selection.StaticXY, selection.MinMux, selection.LFU, selection.LRU, selection.MaxCredit}
	for _, a := range algs {
		for _, tk := range tables {
			for _, sk := range sels {
				c := smoke()
				c.Algorithm = a
				c.Table = tk
				c.Selection = sk
				c.Load = 0.15
				c.Warmup, c.Measure = 50, 500
				if testing.Short() {
					c.Warmup, c.Measure = 30, 120
				}
				res, err := Run(c)
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", a, tk, sk, err)
				}
				if res.Delivered == 0 {
					t.Fatalf("%v/%v/%v: nothing delivered", a, tk, sk)
				}
			}
		}
	}
}

// The four paper patterns all run on the default (look-ahead adaptive)
// router.
func TestPaperPatterns(t *testing.T) {
	for _, p := range []traffic.Kind{traffic.Uniform, traffic.Transpose, traffic.BitReversal, traffic.Shuffle} {
		c := smoke()
		c.Pattern = p
		c.Load = 0.1
		c.Warmup, c.Measure = 100, 1000
		res, err := Run(c)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Saturated {
			t.Errorf("%v: saturated at load 0.1", p)
		}
	}
}

// 3-D mesh and torus configurations exercise the ES generalizations.
func Test3DAndTorus(t *testing.T) {
	c := smoke()
	c.Dims = []int{4, 4, 4}
	c.Pattern = traffic.Uniform
	c.Warmup, c.Measure = 100, 1000
	if _, err := Run(c); err != nil {
		t.Fatalf("3-D: %v", err)
	}
	c = smoke()
	c.Torus = true
	c.EscapeVCs = 2
	c.Table = table.KindFull
	c.Warmup, c.Measure = 100, 1000
	if _, err := Run(c); err != nil {
		t.Fatalf("torus: %v", err)
	}
}

func TestPercentilesPopulated(t *testing.T) {
	c := smoke()
	c.Load = 0.3
	c.Warmup, c.Measure = 200, 3000
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.P50 > 0 && res.P50 <= res.P95 && res.P95 <= res.P99) {
		t.Errorf("percentile ordering broken: %v %v %v", res.P50, res.P95, res.P99)
	}
	// The median should bracket the mean within the bucket resolution
	// for this mild load.
	if res.P50 < res.AvgLatency*0.5 || res.P50 > res.AvgLatency*1.5 {
		t.Errorf("median %v implausible vs mean %v", res.P50, res.AvgLatency)
	}
}

func TestConfigKey(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	if a.Key() != b.Key() {
		t.Fatalf("identical configs disagree:\n%s\n%s", a.Key(), b.Key())
	}
	// Every field that feeds the simulation must perturb the key.
	perturb := []func(*Config){
		func(c *Config) { c.Dims = []int{8, 8} },
		func(c *Config) { c.Torus = true },
		func(c *Config) {
			p, err := fault.New(c.Mesh(), []fault.Link{{Node: 0, Port: topology.PortPlus(0)}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			c.Faults = fault.Static(p)
		},
		func(c *Config) { c.VCs = 8 },
		func(c *Config) { c.EscapeVCs = 2 },
		func(c *Config) { c.BufDepth = 10 },
		func(c *Config) { c.OutDepth = 2 },
		func(c *Config) { c.LinkDelay = 2 },
		func(c *Config) { c.LookAhead = false },
		func(c *Config) { c.Algorithm = AlgXY },
		func(c *Config) { c.Table = table.KindFull },
		func(c *Config) { c.Selection = selection.MaxCredit },
		func(c *Config) { c.Pattern = traffic.Shuffle },
		func(c *Config) { c.Load = 0.25 },
		func(c *Config) { c.MsgLen = 5 },
		func(c *Config) { c.Burst = &traffic.Burst{OnFrac: 0.25, MeanOn: 100} },
		func(c *Config) { c.QoS = &QoSSpec{HiFrac: 0.2, HiVCs: 1} },
		func(c *Config) { c.Trace = &traffic.Trace{} },
		func(c *Config) { c.Warmup = 1 },
		func(c *Config) { c.Measure = 7 },
		func(c *Config) { c.Auto = &AutoMeasure{RelTol: 0.1} },
		func(c *Config) { c.MaxCycles = 9 },
		func(c *Config) { c.SatLatency = 1234 },
		func(c *Config) { c.Seed = 42 },
		func(c *Config) { c.EventMode = true },
		func(c *Config) { c.Reliability = &Reliability{RTO: 256} },
	}
	// Every field of Config must have a perturbation above: a field
	// added without extending Key would silently alias memo-cache
	// entries in internal/sweep.
	if n := reflect.TypeOf(Config{}).NumField(); n != len(perturb) {
		t.Fatalf("Config has %d fields but TestConfigKey perturbs %d: extend Key() and this list", n, len(perturb))
	}
	seen := map[string]int{a.Key(): -1}
	for i, mut := range perturb {
		c := DefaultConfig()
		mut(&c)
		if prev, dup := seen[c.Key()]; dup {
			t.Errorf("perturbation %d collides with %d: %s", i, prev, c.Key())
		}
		seen[c.Key()] = i
	}
	// Loads that differ only in the last bit must not collide.
	c1, c2 := DefaultConfig(), DefaultConfig()
	c1.Load = 0.1
	c2.Load = 0.1 + 1e-17
	if c2.Load != c1.Load && c1.Key() == c2.Key() {
		t.Error("distinct float loads collide")
	}
}
