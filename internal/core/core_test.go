package core

import (
	"fmt"
	"math"
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
	if VCs != 4 || c.MsgLen != 20 || BufDepth != 20 || LinkDelay != 1 || OutDepth != 4 || ResvVCs != 1 {
		t.Error("defaults do not match Table 2")
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

// TestValidateRefusesUnrunnableValues: a load no node can inject (the
// injector would draw forever on it, or NaN keys a meaningless run), a
// negative cycle budget (one cycle, then "exhausted"), a NaN high-class
// fraction (it reserved the VC and sent no high-class traffic), an
// infinite burst (its source never left ON, offering Load/OnFrac) and a
// burst whose ON state offers more than a node can inject (its source drew
// forever), a load so low that the derived cycle budget overflows and a
// Warmup+Measure that overflows (each ran one cycle, then "exhausted")
// are refused, naming their field. The most a node can inject, on average
// and while ON, is accepted, and so is the low load given a MaxCycles.
func TestValidateRefusesUnrunnableValues(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Load", func(c *Config) { c.Load = math.NaN() }},
		{"Load", func(c *Config) { c.Load = math.Inf(1) }},
		{"Load", func(c *Config) { c.Load = 1e300 }},
		{"Load", func(c *Config) { c.Load = 80.001 }},
		{"MaxCycles", func(c *Config) { c.MaxCycles = -5 }},
		{"QoS", func(c *Config) { c.QoS = math.NaN() }},
		{"MeanOn", func(c *Config) { c.Burst = &traffic.Burst{OnFrac: 0.3, MeanOn: math.Inf(1)} }},
		{"Burst.OnFrac", func(c *Config) { c.Burst = &traffic.Burst{OnFrac: 1e-300, MeanOn: 200} }},
		{"Load", func(c *Config) { c.Load = 1e-300 }},
		{"MaxCycles", func(c *Config) { c.Load = 1e-300 }},
		{"Warmup", func(c *Config) { c.Warmup = math.MaxInt }},
	} {
		c := DefaultConfig()
		tc.set(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err=%v, want one naming it", tc.field, err)
		}
	}
	c := DefaultConfig()
	c.Load = 80 // one 20-flit message per node per cycle on 16x16
	if err := c.Validate(); err != nil {
		t.Errorf("Load 80 on %s: %v", c.Mesh(), err)
	}
	c = DefaultConfig()
	c.Burst = &traffic.Burst{OnFrac: traffic.MessageRate(c.Mesh(), c.Load, c.MsgLen), MeanOn: 200}
	if err := c.Validate(); err != nil {
		t.Errorf("Burst.OnFrac %g, one message per node per cycle while ON: %v", c.Burst.OnFrac, err)
	}
	c = DefaultConfig()
	c.Load, c.MaxCycles = 1e-300, 1000
	if err := c.Validate(); err != nil {
		t.Errorf("Load %g with MaxCycles %d: %v", c.Load, c.MaxCycles, err)
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

// TestTablesEqualAlgorithm checks statically that every table
// organization programs exactly the routing function it encodes, for the
// routers the simulator builds: every organization x algorithm x
// {1,2,3}-D x {mesh, torus} that Validate accepts, programmed through
// Config.Routing (so with the VC partition Config.class derives), is held
// by table.Verify to answer every lookup at every router, destination and
// dateline state as the algorithm does, and the algorithm to what the
// organization can express. Every router of a structure, and its
// look-ahead lookups, read one shared table.Routes, so this is also the
// paper's ES == full-table equivalence. The radices are small but include
// odd, even and radix-2 dimensions: a radix-2 torus dimension never
// realizes a "-" sign.
func TestTablesEqualAlgorithm(t *testing.T) {
	t.Parallel()
	checked := 0
	for _, dims := range [][]int{{7}, {6, 5}, {4, 3, 2}} {
		for _, torus := range []bool{false, true} {
			for _, a := range Algs {
				for _, k := range table.Kinds {
					c := DefaultConfig()
					c.Dims, c.Torus, c.Algorithm, c.Table = dims, torus, a, k
					if c.Validate() != nil {
						continue
					}
					alg, cls, err := c.Routing()
					if err == nil {
						err = table.Verify(k, c.Mesh(), alg, cls)
					}
					if err != nil {
						t.Fatal(err)
					}
					checked++
				}
			}
		}
	}
	if checked != 48 {
		t.Errorf("checked %d (organization, algorithm, topology) combinations, want 48", checked)
	}
}

// TestShapeLimitsValidateOrRun is TestIntervalValidateOrRun's neighbour
// for the limits that size or bound a run rather than route it: every
// algorithm, on one to five dimensions (flow.MaxCandidates bounds an
// adaptive route set), mesh and torus — every VC partition Config.class
// derives — and, under duato (xy in five dimensions), zero load with and
// without a cycle budget and a negative warm-up. Every case is either rejected by
// Validate, naming the field or the algorithm, or runs, unsaturated at
// load 0.2 without a budget; and it runs twice in a row, so the second
// pass goes through the arena the first one returned (or, after a
// rejection, finds the free list as it was).
func TestShapeLimitsValidateOrRun(t *testing.T) {
	type limits struct {
		load   float64
		budget int64
		warmup int
	}
	var bounds []limits
	for _, load := range []float64{0, 0.2} {
		for _, budget := range []int64{0, 500} {
			for _, warmup := range []int{-1, 0} {
				bounds = append(bounds, limits{load, budget, warmup})
			}
		}
	}
	ran, rejected := 0, 0
	for _, alg := range Algs {
		for _, dims := range [][]int{{8}, {4, 4}, {3, 3, 3}, {3, 3, 3, 3}, {2, 2, 2, 2, 2}} {
			// The bounds go with the default algorithm, and with xy where
			// the default cannot route.
			lims := []limits{{0.2, 0, 0}}
			if alg == AlgDuato || alg == AlgXY && len(dims) > flow.MaxCandidates {
				lims = bounds
			}
			for _, torus := range []bool{false, true} {
				for _, l := range lims {
					c := smoke()
					c.Algorithm, c.Dims, c.Torus = alg, dims, torus
					c.Load, c.MaxCycles, c.Warmup, c.Measure = l.load, l.budget, l.warmup, 40
					name := fmt.Sprintf("%s %s load=%g budget=%d warmup=%d", alg, c.Mesh(), l.load, l.budget, l.warmup)
					if verr := c.Validate(); verr != nil {
						rejected++
						named := false
						for _, field := range []string{"Warmup", "Load", "Dims", alg.String()} {
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
						// Load 0.2 is far below saturation on every shape here, so
						// without a cycle budget to cut it short a saturated run is a
						// routing function that strands flits.
						if first.Saturated && l.load > 0 && l.budget == 0 {
							t.Errorf("%s: saturated", name)
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
		{func(c *Config) { c.Dims, c.Algorithm = []int{2, 2, 2, 2, 2, 2, 2, 2}, AlgXY }, "Dims [2 2 2 2 2 2 2 2] has 8 dimensions"},
		{func(c *Config) { c.Warmup = -5 }, "Warmup -5"},
		{func(c *Config) { c.MsgLen = 0 }, "MsgLen 0 < 1"},
	} {
		c := smoke()
		tc.mut(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want a Validate error containing %q, got %v", tc.want, err)
		}
	}
}

// TestPatternShapesValidateOrRun holds every traffic pattern to the same
// bar on 1-, 2- and 3-D shapes, square and not, power-of-two sized and
// not: Validate rejects it, naming Pattern, or it runs twice alike.
func TestPatternShapesValidateOrRun(t *testing.T) {
	ran, rejected := 0, 0
	for _, k := range traffic.Kinds {
		for _, dims := range [][]int{{8}, {4, 4}, {8, 4}, {3, 3}, {6, 6}, {2, 2, 2}, {3, 3, 3}} {
			for _, torus := range []bool{false, true} {
				c := smoke()
				c.Dims, c.Torus, c.Pattern = dims, torus, k
				c.Warmup, c.Measure, c.Load = 10, 40, 0.1
				name := fmt.Sprintf("%s on %s", k, c.Mesh())
				if verr := c.Validate(); verr != nil {
					rejected++
					if !strings.Contains(verr.Error(), "Pattern") {
						t.Errorf("%s: rejection does not name Pattern: %v", name, verr)
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
	t.Logf("%d cases ran twice, %d were rejected", ran, rejected)
	if ran == 0 || rejected == 0 {
		t.Errorf("%d cases ran and %d were rejected; the walk should do both", ran, rejected)
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
	// The text form, which flags and the wire use, is the same name.
	for _, a := range Algs {
		b, err := a.MarshalText()
		var got Alg
		if err != nil || string(b) != a.String() || got.UnmarshalText(b) != nil || got != a {
			t.Errorf("text round trip %v: %q %v -> %v", a, b, err, got)
		}
	}
	if got := AlgDuato; got.UnmarshalText([]byte("nope")) == nil {
		t.Error("UnmarshalText accepted an unknown name")
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
		func(c *Config) { c.LookAhead = false },
		func(c *Config) { c.Algorithm = AlgXY },
		func(c *Config) { c.Table = table.KindMetaRow }, // full and interval key as es (canonical)
		func(c *Config) { c.Selection = selection.MaxCredit },
		func(c *Config) { c.Pattern = traffic.Shuffle },
		func(c *Config) { c.Load = 0.25 },
		func(c *Config) { c.MsgLen = 5 },
		func(c *Config) { c.Burst = &traffic.Burst{OnFrac: 0.25, MeanOn: 100} },
		func(c *Config) { c.QoS = 0.2 },
		func(c *Config) { c.Trace = &traffic.Trace{} },
		func(c *Config) { c.Warmup = 1 },
		func(c *Config) { c.Measure = 7 },
		func(c *Config) { c.MaxCycles = 9 },
		func(c *Config) { c.Seed = 42 },
		func(c *Config) { c.EventMode = true },
		func(c *Config) { c.Reliability = true },
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
