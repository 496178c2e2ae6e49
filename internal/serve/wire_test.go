package serve

import (
	"encoding/json"
	"math"
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
// the wire format carries: topology shape, torus wrap, fault plans, the
// pipeline, algorithm/table/selection/pattern enums, the sample
// sizes, the cycle budget, and the workload and availability options
// (bursty sources, QoS classes, a fault schedule, the reliability layer).
func wireTestConfigs(t *testing.T) []core.Config {
	t.Helper()
	base := core.DefaultConfig()

	torus := core.DefaultConfig()
	torus.Dims = []int{4, 4}
	torus.Torus = true
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

	capped := core.DefaultConfig()
	capped.MaxCycles = 123456

	exotic := core.DefaultConfig()
	exotic.Dims = []int{2, 3, 4}
	exotic.LookAhead = false
	exotic.MsgLen = 5
	exotic.Load = 0.37
	exotic.Seed = 99
	exotic.Pattern = traffic.Tornado // transpose needs a square 2-D shape

	meta := core.DefaultConfig()
	meta.Dims = []int{8, 4}
	meta.Table = table.KindMetaBlock

	stormy := core.DefaultConfig()
	stormy.Dims = []int{8, 8}
	stormy.Burst = &traffic.Burst{OnFrac: 0.25, MeanOn: 150}
	stormy.QoS = 0.2
	stormy.Reliability = true
	if stormy.Faults, err = fault.ParseSchedule(stormy.Mesh(), "27-28@500:1500,r9@800"); err != nil {
		t.Fatalf("building fault schedule: %v", err)
	}

	return []core.Config{base, torus, faulty, capped, exotic, meta, stormy}
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

// TestPointsFromGridRefusesEventMode: a served answer is stored for good,
// so a grid holding an event-mode point is refused whole, naming the point
// and the field, instead of running it on either kernel.
func TestPointsFromGridRefusesEventMode(t *testing.T) {
	t.Parallel()
	grid := []core.Config{core.DefaultConfig(), core.DefaultConfig()}
	grid[1].EventMode = true
	_, err := PointsFromGrid(grid)
	if err == nil || !strings.Contains(err.Error(), "point 1: ") || !strings.Contains(err.Error(), "EventMode") {
		t.Fatalf("got %v, want a refusal naming point 1 and EventMode", err)
	}
}

// ref is a pointer to a copy of v, for setting a Point's required scalars.
func ref[T any](v T) *T { return &v }

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
		"bad algorithm":  func(p *Point) { p.Algorithm = "warp-drive" },
		"no algorithm":   func(p *Point) { p.Algorithm = "" },
		"bad table":      func(p *Point) { p.Table = "hash" },
		"bad selection":  func(p *Point) { p.Selection = "psychic" },
		"bad pattern":    func(p *Point) { p.Pattern = "tsunami" },
		"bad fault spec": func(p *Point) { p.Faults = "r-1" },
	}
	for name, mutate := range cases {
		p := good
		mutate(&p)
		if _, err := p.Config(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A radix no mesh has is refused as Validate words it, with or
	// without a fault spec to place in the mesh.
	for _, faults := range []string{"", "1-2"} {
		p := good
		p.Dims, p.Faults = []int{1, 4}, faults
		if _, err := p.Config(); err == nil || !strings.Contains(err.Error(), "core: radix 1 < 2") {
			t.Errorf("radix 1, faults %q: want core's refusal, got %v", faults, err)
		}
	}
	// Validate judges a point with its faults in place, which permit what
	// a healthy mesh refuses: yx beyond two dimensions.
	yx3 := good
	yx3.Dims, yx3.Algorithm, yx3.Faults = []int{4, 4, 4}, "yx", "1-2"
	if _, err := yx3.Config(); err != nil {
		t.Errorf("faulted yx on 4x4x4: %v", err)
	}
	// core.Config.Validate's refusals name their field.
	for field, mutate := range map[string]func(p *Point){
		"MsgLen": func(p *Point) { p.MsgLen = ref(0) },
		"Dims":   func(p *Point) { p.Dims, p.Algorithm = []int{2, 2, 2, 2, 2, 2, 2, 2}, "xy" },
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
		"Dims":      []int{8, 8},
		"Faults":    sched,
		"Burst":     &traffic.Burst{OnFrac: 0.3, MeanOn: 100},
		"Trace":     traffic.StencilTrace(mesh, 64, 100, 4),
		"Algorithm": core.AlgXY,
		"Table":     table.KindMetaRow, // full and interval key as es (canonical)
	}
	offWire := map[string]bool{"Trace": true, "EventMode": true}

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
	if carried != 1 {
		t.Errorf("%d sub-configs travel as themselves, want 1 (Burst)", carried)
	}
}

// TestPointFaultPayloads pins how damage travels: static and timed damage
// alike under "faults", byte for byte; and a static schedule spelled with
// "@0" items decodes to the key of the same damage sent as a plan.
func TestPointFaultPayloads(t *testing.T) {
	t.Parallel()
	cfgs := wireTestConfigs(t)
	for _, tc := range []struct {
		name string
		cfg  core.Config
		want string
	}{
		{"static", cfgs[2], `{"dims":[8,8],"faults":"1-2,r27","lookahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.2,"msg_len":20,"warmup":2000,"measure":30000,"seed":1}`},
		{"timed", cfgs[6], `{"dims":[8,8],"faults":"27-28@500:1500,r9@800","reliability":true,"lookahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.2,"msg_len":20,"burst":{"on_frac":0.25,"mean_on":150},"qos":0.2,"warmup":2000,"measure":30000,"seed":1}`},
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

	const atZero = `{"dims":[8,8],"faults":"1-2@0,r27@0","lookahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.2,"msg_len":20,"warmup":2000,"measure":30000,"seed":1}`
	var p Point
	if err := json.Unmarshal([]byte(atZero), &p); err != nil {
		t.Fatal(err)
	}
	c, err := p.Config()
	if err != nil {
		t.Fatal(err)
	}
	if c.Key() != cfgs[2].Key() {
		t.Errorf("a static schedule keys apart from its plan:\n got %s\nwant %s", c.Key(), cfgs[2].Key())
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
	const want = `{"dims":[16,16],"lookahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.2,"msg_len":20,"warmup":2000,"measure":30000,"seed":1}`
	if string(got) != want {
		t.Errorf("default point payload changed:\n got %s\nwant %s", got, want)
	}
}

// FuzzJobResults holds the client's one-pass results decoder to
// encoding/json: it fails exactly when json.Unmarshal into a JobResults
// fails, and otherwise reads the same status and the same outcomes, every
// result field to the bit.
func FuzzJobResults(f *testing.F) {
	grid := testGrid(5)
	hit, _ := scripted(grid[0])
	wide, _ := scripted(grid[1])
	wide.CI95 = math.Inf(1)
	ran, _ := scripted(grid[2])
	for _, body := range []JobResults{
		{
			Status: JobStatus{ID: "j000001", State: JobFailed, Total: 5, Completed: 5, Cached: 2, Simulated: 2, Failed: 1, Error: "1 of 5 points failed"},
			Outcomes: []PointOutcome{
				{Result: &hit, Cached: true}, {Result: &wide, Cached: true}, {Result: &ran}, {Error: "boom <3>"}, {Result: &hit},
			},
		},
		{
			Status:   JobStatus{ID: "j000002", State: JobInterrupted, Total: 2},
			Outcomes: []PointOutcome{{Error: "point not executed: job interrupted"}, {Error: "point not executed: job interrupted"}},
		},
	} {
		b, err := encodeJSON(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, seed := range []string{
		// Members reordered and case-folded, extra space, unknown members.
		` { "OUTCOMES" : [ { "Cached" : true , "zed" : [ 1 , { "a" : null } ] , "Result" : { "CI95" : "+Inf" , "Delivered" : 3 } } ] ,
			"Status" : { "id" : "j1" , "state" : "done" , "total" : 1 } , "extra" : { } } ` + "\n",
		// Escaped names and values, ſ folding to s.
		`{"ſtatus":{"state":"done"},"outcomes":[{"error":"a<b\"\\ 😀 \ud800"},{"Erro\u0072":"x","c\u0061ched":true}]}`,
		// null values: the pointer cleared, the rest left as they were.
		`{"status":null,"outcomes":[null,{"result":null,"error":null,"cached":null}]}`,
		`{"outcomes":null}`, `null`, `{}`, `{"outcomes":[]}`,
		// Duplicates: the last wins, an object or slice element decoding
		// into what the first left.
		`{"outcomes":[{"error":"a"},{"error":"b"}],"outcomes":[{"cached":true}],"outcomes":[{},{}]}`,
		`{"outcomes":[{"result":{"Cycles":1},"result":{"Delivered":2}}],"status":{"id":"a"},"status":{"total":3}}`,
		// Wrong types and bad results.
		`{"outcomes":{}}`, `{"outcomes":[1]}`, `{"outcomes":[{"error":1}]}`, `{"outcomes":[{"cached":"true"}]}`,
		`{"outcomes":[{"result":[]}]}`, `{"outcomes":[{"result":{"CI95":{}}}]}`, `{"status":[]}`, `[]`, `7`,
		// Trailing garbage, a second value, truncation.
		`{"outcomes":[]} x`, `{"outcomes":[]}{}`, `{"outcomes":[{"result":{"Cycles":1}`, ``,
		// encoding/json's nesting limit, 10 000 open at once, and one past it.
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want JobResults
		err := decodeResults(data, &got)
		werr := json.Unmarshal(data, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: decoder err=%v, encoding/json err=%v", data, err, werr)
		}
		if werr != nil {
			return
		}
		if got.Status != want.Status || len(got.Outcomes) != len(want.Outcomes) || (got.Outcomes == nil) != (want.Outcomes == nil) {
			t.Fatalf("%q: decoder reads %+v, encoding/json %+v", data, got, want)
		}
		for i, g := range got.Outcomes {
			w := want.Outcomes[i]
			if g.Error != w.Error || g.Cached != w.Cached || (g.Result == nil) != (w.Result == nil) {
				t.Fatalf("%q: outcome %d is %+v, encoding/json reads %+v", data, i, g, w)
			}
			if g.Result == nil {
				continue
			}
			gv, wv := reflect.ValueOf(*g.Result), reflect.ValueOf(*w.Result)
			for j := 0; j < gv.NumField(); j++ {
				gf, wf := gv.Field(j), wv.Field(j)
				same := gf.Equal(wf)
				if gf.Kind() == reflect.Float64 {
					same = math.Float64bits(gf.Float()) == math.Float64bits(wf.Float())
				}
				if !same {
					t.Fatalf("%q: outcome %d's %s is %v, encoding/json reads %v", data, i, gv.Type().Field(j).Name, gf, wf)
				}
			}
		}
	})
}
