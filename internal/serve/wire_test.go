package serve

import (
	"encoding/json"
	"testing"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/traffic"
)

// wireTestConfigs is a spread of configurations exercising every field
// the wire format carries: topology shape, torus wrap, fault plans,
// router geometry, algorithm/table/selection/pattern enums, measurement
// tiers (fixed and auto), guards and event mode.
func wireTestConfigs(t *testing.T) []core.Config {
	t.Helper()
	base := core.DefaultConfig()

	torus := core.DefaultConfig()
	torus.Dims = []int{4, 4}
	torus.Torus = true
	torus.VCs = 6
	torus.EscapeVCs = 2
	torus.Algorithm = core.AlgXY
	torus.Table = table.KindFull
	torus.Selection = selection.StaticXY
	torus.Pattern = traffic.BitReversal

	faulty := core.DefaultConfig()
	faulty.Dims = []int{8, 8}
	plan, err := fault.Parse(faulty.Mesh(), "1-2,r27")
	if err != nil {
		t.Fatalf("building fault plan: %v", err)
	}
	faulty.Faults = plan

	auto := core.DefaultConfig()
	auto.Auto = &core.AutoMeasure{RelTol: 0.05, MinMessages: 100, MaxMessages: 5000, CheckEvery: 50}
	auto.MaxCycles = 123456
	auto.SatLatency = 777

	exotic := core.DefaultConfig()
	exotic.Dims = []int{2, 3, 4}
	exotic.CutThrough = true
	exotic.LookAhead = false
	exotic.BufDepth = 7
	exotic.OutDepth = 2
	exotic.LinkDelay = 3
	exotic.MsgLen = 5
	exotic.Load = 0.37
	exotic.Seed = 99
	exotic.EventMode = true
	exotic.Pattern = traffic.Transpose

	meta := core.DefaultConfig()
	meta.Dims = []int{8, 4}
	meta.Table = table.KindMetaBlock

	return []core.Config{base, torus, faulty, auto, exotic, meta}
}

// TestPointRoundTripPreservesKey pins the wire contract: for any
// trace-free config, Config → Point → JSON → Point → Config preserves
// core.Config.Key exactly, so a served simulation is keyed (and cached)
// identically to an in-process one.
func TestPointRoundTripPreservesKey(t *testing.T) {
	t.Parallel()
	for i, c := range wireTestConfigs(t) {
		if err := c.Validate(); err != nil {
			t.Fatalf("config %d invalid before the round trip: %v", i, err)
		}
		p, err := PointFromConfig(c)
		if err != nil {
			t.Fatalf("config %d: to wire: %v", i, err)
		}
		buf, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("config %d: marshal: %v", i, err)
		}
		var back Point
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("config %d: unmarshal: %v", i, err)
		}
		got, err := back.Config()
		if err != nil {
			t.Fatalf("config %d: from wire: %v", i, err)
		}
		if got.Key() != c.Key() {
			t.Errorf("config %d key changed across the wire:\nwant %s\ngot  %s", i, c.Key(), got.Key())
		}
	}
}

// legacyPoints renders pts the way a client from before the per-run
// parallelism axis was removed would: every point carries the field that
// axis used on the wire.
func legacyPoints(t *testing.T, pts []Point) []map[string]any {
	t.Helper()
	buf, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	var legacy []map[string]any
	if err := json.Unmarshal(buf, &legacy); err != nil {
		t.Fatal(err)
	}
	for _, p := range legacy {
		p["shards"] = 4
	}
	return legacy
}

// TestPointIgnoresLegacyField: a point from such a client still decodes,
// and to the same key as the point without the field — the field never
// changed a Result, so the plain key's store entry is the right answer.
func TestPointIgnoresLegacyField(t *testing.T) {
	t.Parallel()
	cfgs := wireTestConfigs(t)
	pts, err := PointsFromGrid(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(legacyPoints(t, pts))
	if err != nil {
		t.Fatal(err)
	}
	var back []Point
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("legacy points rejected: %v", err)
	}
	for i, p := range back {
		got, err := p.Config()
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if got.Key() != cfgs[i].Key() {
			t.Errorf("point %d: legacy key %s != plain key %s", i, got.Key(), cfgs[i].Key())
		}
	}
}

// TestPointRejectsTrace: trace workloads are pointer-identified and
// must not silently serialize into something that simulates differently.
func TestPointRejectsTrace(t *testing.T) {
	t.Parallel()
	c := core.DefaultConfig()
	c.Trace = &traffic.Trace{}
	if _, err := PointFromConfig(c); err == nil {
		t.Fatal("trace-driven config serialized without error")
	}
}

// TestPointConfigErrors: malformed points fail with descriptive errors
// instead of panicking inside topology or table construction.
func TestPointConfigErrors(t *testing.T) {
	t.Parallel()
	good, err := PointFromConfig(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(p *Point){
		"no dims":        func(p *Point) { p.Dims = nil },
		"radix 1":        func(p *Point) { p.Dims = []int{1, 4} },
		"bad algorithm":  func(p *Point) { p.Algorithm = "warp-drive" },
		"bad table":      func(p *Point) { p.Table = "hash" },
		"bad selection":  func(p *Point) { p.Selection = "psychic" },
		"bad pattern":    func(p *Point) { p.Pattern = "tsunami" },
		"bad fault spec": func(p *Point) { p.Faults = "r-1" },
		"zero vcs":       func(p *Point) { p.VCs = 0 },
	}
	for name, mutate := range cases {
		p := good
		mutate(&p)
		if _, err := p.Config(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
