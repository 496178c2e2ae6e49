package serve

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// wireTestConfigs is a spread of configurations exercising every field
// the wire format carries: topology shape, torus wrap, fault plans,
// router geometry, algorithm/table/selection/pattern enums, measurement
// tiers (fixed and auto), guards, event mode, and the workload and
// availability options (bursty sources, QoS classes, a fault schedule, the
// reliability layer).
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
	plan, err := fault.New(faulty.Mesh(), []fault.Link{{Node: 1, Port: topology.PortPlus(0)}}, []topology.NodeID{27})
	if err != nil {
		t.Fatalf("building fault plan: %v", err)
	}
	faulty.Faults = fault.Static(plan)

	auto := core.DefaultConfig()
	auto.Auto = &core.AutoMeasure{RelTol: 0.05, MinMessages: 100, MaxMessages: 5000, CheckEvery: 50}
	auto.MaxCycles = 123456
	auto.SatLatency = 777

	exotic := core.DefaultConfig()
	exotic.Dims = []int{2, 3, 4}
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

	stormy := core.DefaultConfig()
	stormy.Dims = []int{8, 8}
	stormy.Burst = &traffic.Burst{OnFrac: 0.25, MeanOn: 150}
	stormy.QoS = &core.QoSSpec{HiFrac: 0.2, HiVCs: 1}
	stormy.Reliability = &core.Reliability{RTO: 512, MaxAttempts: 5}
	if stormy.Faults, err = fault.ParseSchedule(stormy.Mesh(), "27-28@500:1500,r9@800"); err != nil {
		t.Fatalf("building fault schedule: %v", err)
	}

	return []core.Config{base, torus, faulty, auto, exotic, meta, stormy}
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
	// Refusals that name their field: core.Config.Validate's, and the
	// cut-through switch the wire no longer carries.
	for field, mutate := range map[string]func(p *Point){
		"MsgLen":      func(p *Point) { p.MsgLen = 0 },
		"LinkDelay":   func(p *Point) { p.LinkDelay = 0 },
		"BufDepth":    func(p *Point) { p.BufDepth = 0 },
		"OutDepth":    func(p *Point) { p.OutDepth = 0 },
		"VCs":         func(p *Point) { p.Dims, p.Algorithm, p.VCs = []int{8}, "xy", 12 },
		"cut_through": func(p *Point) { p.CutThrough = true },
	} {
		p := good
		mutate(&p)
		if _, err := p.Config(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: want an error naming it, got %v", field, err)
		}
	}
}

// throughWire sends c through PointFromConfig → JSON → Point → Config.
func throughWire(c core.Config) (core.Config, error) {
	p, err := PointFromConfig(c)
	if err != nil {
		return core.Config{}, err
	}
	buf, err := json.Marshal(p)
	if err != nil {
		return core.Config{}, err
	}
	var back Point
	if err := json.Unmarshal(buf, &back); err != nil {
		return core.Config{}, err
	}
	return back.Config()
}

// TestPointCarriesEveryConfigField walks core.Config by reflection — nested
// pointer structs included — and changes one field at a time from
// DefaultConfig(). Every change must (a) change Config.Key: a field missing
// from Key makes two different simulations share one durable store line;
// and (b) either make PointFromConfig fail with an error naming the field,
// or survive the wire with its Key intact: a field missing from Point is a
// server silently simulating something else. A field this test cannot
// perturb fails it too, so a field added to Config cannot slip past.
func TestPointCarriesEveryConfigField(t *testing.T) {
	t.Parallel()
	mesh := core.DefaultConfig().Mesh()
	sched, err := fault.ParseSchedule(mesh, "12-13@100:200,r77@300")
	if err != nil {
		t.Fatal(err)
	}
	// What a field changes to when "add one" is not a valid configuration
	// or the field is no number: replacements keyed by field path. Pointer
	// fields list the value they are switched on with; their sub-fields are
	// then perturbed from it.
	replace := map[string]any{
		"Dims":        []int{8, 8},
		"Faults":      sched,
		"Reliability": &core.Reliability{},
		"Burst":       &traffic.Burst{OnFrac: 0.3, MeanOn: 100},
		"QoS":         &core.QoSSpec{HiFrac: 0.2, HiVCs: 1},
		"Trace":       traffic.StencilTrace(mesh, 64, 100, 4),
		"Auto":        &core.AutoMeasure{},
		"Algorithm":   core.AlgXY,
		"Table":       table.KindFull,
	}
	offWire := map[string]bool{"Trace": true}

	check := func(path, baseKey string, changed core.Config) {
		t.Helper()
		if err := changed.Validate(); err != nil {
			t.Fatalf("%s: the perturbed config is invalid, give the test a valid replacement: %v", path, err)
		}
		if changed.Key() == baseKey {
			t.Errorf("%s: changing it leaves Config.Key unchanged (%s)", path, baseKey)
		}
		got, err := throughWire(changed)
		switch {
		case offWire[path]:
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("%s: want a wire error naming the field, got %v", path, err)
			}
		case err != nil:
			t.Errorf("%s: wire: %v", path, err)
		case got.Key() != changed.Key():
			t.Errorf("%s: dropped or altered on the wire:\nwant %s\ngot  %s", path, changed.Key(), got.Key())
		}
	}

	// perturb changes every field of the struct v points into (a field of
	// *cfg, or of a struct one of its pointers refers to) in turn, restoring
	// it afterwards.
	var perturb func(cfg *core.Config, v reflect.Value, prefix string)
	perturb = func(cfg *core.Config, v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			f, path := v.Field(i), prefix+v.Type().Field(i).Name
			baseKey := cfg.Key()
			old := reflect.New(f.Type()).Elem()
			old.Set(f)
			if r, ok := replace[path]; ok {
				f.Set(reflect.ValueOf(r))
			} else {
				switch f.Kind() {
				case reflect.Bool:
					f.SetBool(!f.Bool())
				case reflect.Int, reflect.Int64:
					f.SetInt(f.Int() + 1)
				case reflect.Float64:
					f.SetFloat(f.Float() + 0.125)
				default:
					t.Errorf("%s: no perturbation for a %s field; add one to this test (and the field to Key and Point)", path, f.Type())
					continue
				}
			}
			check(path, baseKey, *cfg)
			if f.Kind() == reflect.Pointer && f.Elem().Kind() == reflect.Struct && f.Elem().NumField() > 0 && f.Elem().Field(0).CanSet() {
				perturb(cfg, f.Elem(), path+".")
			}
			f.Set(old)
		}
	}
	cfg := core.DefaultConfig()
	perturb(&cfg, reflect.ValueOf(&cfg).Elem(), "")
	if !reflect.DeepEqual(cfg, core.DefaultConfig()) {
		t.Fatal("the walk did not restore the config")
	}
}

// TestPointHoldsConfigTypes: every struct core.Config points to either
// travels on Point as that very type — its JSON tags are the wire names —
// or as a spec string (Faults), or is refused by name (Trace).
// A hand-copied wire struct for one of them fails here.
func TestPointHoldsConfigTypes(t *testing.T) {
	t.Parallel()
	ct, pt := reflect.TypeOf(core.Config{}), reflect.TypeOf(Point{})
	carried := 0
	for i := 0; i < ct.NumField(); i++ {
		cf := ct.Field(i)
		if cf.Type.Kind() != reflect.Pointer || cf.Name == "Trace" {
			continue
		}
		pf, ok := pt.FieldByName(cf.Name)
		switch {
		case !ok:
			t.Errorf("Config.%s has no Point field", cf.Name)
		case pf.Type.Kind() == reflect.String:
		case pf.Type != cf.Type:
			t.Errorf("Point.%s is a %s, a copy of Config.%s's %s: carry the type itself", cf.Name, pf.Type, cf.Name, cf.Type)
		default:
			carried++
		}
	}
	if carried != 4 {
		t.Errorf("%d sub-configs travel as themselves, want 4 (Reliability, Burst, QoS, Auto)", carried)
	}
}

// TestPointFaultPayloads pins how damage travels: static damage under
// "faults" and timed damage under "schedule", byte for byte as clients and
// servers already exchange them; a static schedule as an older client sent
// it (untimed items under "schedule") decodes to the key of the same damage
// sent as a plan; and a point naming both is refused.
func TestPointFaultPayloads(t *testing.T) {
	t.Parallel()
	cfgs := wireTestConfigs(t)
	for _, tc := range []struct {
		name string
		cfg  core.Config
		want string
	}{
		{"static", cfgs[2], `{"dims":[8,8],"faults":"1-2,r27","vcs":4,"escape_vcs":1,"buf_depth":20,"out_depth":4,"link_delay":1,"lookahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.2,"msg_len":20,"warmup":2000,"measure":30000,"sat_latency":5000,"seed":1}`},
		{"timed", cfgs[6], `{"dims":[8,8],"schedule":"27-28@500:1500,r9@800","reliability":{"rto":512,"max_attempts":5},"vcs":4,"escape_vcs":1,"buf_depth":20,"out_depth":4,"link_delay":1,"lookahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.2,"msg_len":20,"burst":{"on_frac":0.25,"mean_on":150},"qos":{"hi_frac":0.2,"hi_vcs":1},"warmup":2000,"measure":30000,"sat_latency":5000,"seed":1}`},
	} {
		p, err := PointFromConfig(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s point payload changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}

	const older = `{"dims":[8,8],"schedule":"1-2@0,r27@0","vcs":4,"escape_vcs":1,"buf_depth":20,"out_depth":4,"link_delay":1,"lookahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.2,"msg_len":20,"warmup":2000,"measure":30000,"sat_latency":5000,"seed":1}`
	var p Point
	if err := json.Unmarshal([]byte(older), &p); err != nil {
		t.Fatal(err)
	}
	c, err := p.Config()
	if err != nil {
		t.Fatal(err)
	}
	if c.Key() != cfgs[2].Key() {
		t.Errorf("a static schedule sent under \"schedule\" keys apart from its plan:\n got %s\nwant %s", c.Key(), cfgs[2].Key())
	}

	p.Faults = "1-2"
	if _, err := p.Config(); err == nil || !strings.Contains(err.Error(), "exclusive") {
		t.Errorf("a point with both faults and schedule: want a mutually-exclusive error, got %v", err)
	}
}

// TestPointPayloadStable: a config that sets none of Burst, QoS, Faults
// and Reliability encodes to the bytes it did before the wire carried them,
// so old and new clients and servers agree on every such point.
func TestPointPayloadStable(t *testing.T) {
	t.Parallel()
	p, err := PointFromConfig(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"dims":[16,16],"vcs":4,"escape_vcs":1,"buf_depth":20,"out_depth":4,"link_delay":1,"lookahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.2,"msg_len":20,"warmup":2000,"measure":30000,"sat_latency":5000,"seed":1}`
	if string(got) != want {
		t.Errorf("default point payload changed:\n got %s\nwant %s", got, want)
	}
}
