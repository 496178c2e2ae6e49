package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lapses/internal/fault"
	"lapses/internal/router"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// sameState is the constructed-state comparator: a reflection-driven deep
// comparison of two values that reports every path at which they differ.
// It follows pointers, interfaces, slices, arrays, maps and struct fields,
// unexported ones included, and ignores only what a run cannot observe:
// slice capacity, nil versus empty slices and maps, and which function a
// non-nil func value is. Two pointers to the same object are equal without
// a look inside (the mesh, the tables and the algorithm are shared by
// construction); a pair of pointers already being compared is not entered
// again (ni.net points back at the network).
func sameState(a, b any) []string {
	d := differ{seen: map[[2]uintptr]bool{}}
	d.walk("", reflect.ValueOf(a), reflect.ValueOf(b))
	return d.diffs
}

type differ struct {
	seen  map[[2]uintptr]bool
	diffs []string
}

func (d *differ) report(path, format string, args ...any) {
	if len(d.diffs) < 20 {
		d.diffs = append(d.diffs, path+": "+fmt.Sprintf(format, args...))
	}
}

func (d *differ) walk(path string, a, b reflect.Value) {
	if a.IsValid() != b.IsValid() {
		d.report(path, "one side holds nothing")
		return
	}
	if !a.IsValid() {
		return
	}
	if a.Type() != b.Type() {
		d.report(path, "%s vs %s", a.Type(), b.Type())
		return
	}
	switch a.Kind() {
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			d.report(path, "%v vs %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			d.report(path, "%d vs %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			d.report(path, "%#x vs %#x", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			d.report(path, "%v vs %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			d.report(path, "%q vs %q", a.String(), b.String())
		}
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			d.report(path, "nil func vs non-nil func")
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.report(path, "nil pointer vs non-nil pointer")
			}
			return
		}
		pair := [2]uintptr{a.Pointer(), b.Pointer()}
		if pair[0] == pair[1] || d.seen[pair] {
			return
		}
		d.seen[pair] = true
		d.walk(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.report(path, "nil interface vs non-nil interface")
			}
			return
		}
		d.walk(path, a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			d.report(path, "length %d vs %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			d.report(path, "%d keys vs %d", a.Len(), b.Len())
			return
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				d.report(path, "key %v on one side only", it.Key())
				continue
			}
			d.walk(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), bv)
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			d.walk(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
		}
	default:
		d.report(path, "kind %s is not compared", a.Kind())
	}
}

// TestSameStateSeesWhatARunCan pins the comparator itself: it must see a
// difference behind an unexported field, a pointer, an interface and a map,
// and must not see capacity, nil-versus-empty, or shared and cyclic
// pointers.
func TestSameStateSeesWhatARunCan(t *testing.T) {
	type node struct {
		id   int
		next *node
		tags map[int]struct{}
		buf  []int
		src  rand.Source
		fn   func()
	}
	mk := func() *node {
		n := &node{id: 1, tags: map[int]struct{}{3: {}}, buf: make([]int, 2, 8), src: rand.NewSource(5)}
		n.next = &node{id: 2, next: n}
		return n
	}
	a, b := mk(), mk()
	b.buf = append(make([]int, 0, 2), b.buf...) // other capacity
	b.next.tags, b.next.buf = map[int]struct{}{}, []int{}
	a.fn, b.fn = func() {}, func() {}
	if d := sameState(a, b); len(d) != 0 {
		t.Fatalf("equal values differ: %v", d)
	}
	for name, mut := range map[string]func(*node){
		"field behind a cycle":  func(n *node) { n.next.id = 9 },
		"map key":               func(n *node) { n.tags[4] = struct{}{} },
		"slice element":         func(n *node) { n.buf[1] = 7 },
		"state behind an iface": func(n *node) { n.src.Int63() },
		"func set on one side":  func(n *node) { n.fn = nil },
	} {
		c := mk()
		c.fn = func() {}
		mut(c)
		if d := sameState(a, c); len(d) == 0 {
			t.Errorf("%s: the difference went unseen", name)
		}
	}
}

// resetShape fixes what a reset may not change (Shape) for one arena of
// the test: 16 nodes with 5 ports, 4 VCs, 20-flit buffers.
type resetShape struct{ event, reliable bool }

// randomPoint draws a configuration of the given shape at random over
// everything Reset rewrites: dimensions and wraparound (4x4, 2x8, 4x4
// torus: all 16 nodes with 5 ports), routing algorithm, table kind,
// selection (Random included), look-ahead, load, pattern, seed, message
// length, burst, QoS, static faults with and without dead routers, a fault
// schedule, a trace.
func randomPoint(t *testing.T, rng *rand.Rand, s resetShape) Config {
	t.Helper()
	torus := rng.Intn(5) == 0
	dims := [][]int{{4, 4}, {2, 8}}[rng.Intn(2)]
	if torus {
		dims = []int{4, 4}
	}
	damage := []string{"healthy", "healthy", "healthy", "faults", "dead-router", "schedule"}[rng.Intn(6)]
	switch {
	case torus:
		damage = "healthy"
	case damage == "schedule":
		dims = []int{4, 4} // the schedule specs below name 4x4 links
	}
	m := topology.New(torus, dims...)
	adaptive := rng.Intn(3) > 0
	cls := routing.Class{NumVCs: 4}
	if adaptive {
		cls.EscapeVCs = 1
		if torus {
			cls.EscapeVCs = 2
		}
	}
	kind := []table.Kind{table.KindFull, table.KindES}[rng.Intn(2)]
	cfg := Config{
		Mesh:      m,
		Router:    router.Config{NumVCs: 4, BufDepth: 20, OutDepth: 4, LookAhead: rng.Intn(2) == 0},
		Class:     cls,
		Selection: selection.Kinds[rng.Intn(len(selection.Kinds))],
		MsgLen:    []int{1, 5, 20}[rng.Intn(3)],
		Seed:      rng.Int63n(1 << 20),
		EventMode: s.event,
	}
	faultAlg := func(plan *fault.Plan) (routing.Algorithm, error) {
		if adaptive {
			return routing.NewFaultDuato(m, cls, plan)
		}
		return routing.NewFaultDimOrder(m, cls, plan)
	}
	var err error
	switch damage {
	case "healthy":
		alg := routing.NewDimOrder(m, cls, nil)
		switch {
		case adaptive:
			alg = routing.NewDuato(m, cls)
		case !torus && rng.Intn(2) == 0:
			// yx on a 2-D mesh is what one interval per port can express.
			alg = routing.NewDimOrder(m, cls, []int{1, 0})
			kind = []table.Kind{table.KindInterval, table.KindFull, table.KindMetaRow}[rng.Intn(3)]
		}
		cfg.Routes = oneEpoch(kind, m, alg, cls)
	case "faults", "dead-router":
		routers := 0
		if damage == "dead-router" {
			routers = 1
		}
		var plan *fault.Plan
		if plan, err = fault.Random(m, 2, routers, rng.Int63n(1000)); err == nil {
			cfg.Faults = fault.Static(plan)
			cfg.Routes, err = BuildEpochRoutes(m, kind, cls, cfg.Faults, faultAlg)
		}
	case "schedule":
		spec := []string{"5-6@150:600", "5-6@100,r10@300:700", "0-1@50:250,9-10@200:400"}[rng.Intn(3)]
		if cfg.Faults, err = fault.ParseSchedule(m, spec); err == nil {
			cfg.Routes, err = BuildEpochRoutes(m, kind, cls, cfg.Faults, faultAlg)
		}
	}
	if err != nil {
		t.Fatalf("%s on %s: %v", damage, m, err)
	}
	if s.reliable {
		cfg.Reliability = &Reliability{RTO: 150 + rng.Int63n(200), AckDelay: 16}
	}
	if rng.Intn(6) == 0 && !cfg.Faults.FailsRouters() {
		cfg.Trace = traffic.StencilTrace(m, 12, 40, cfg.MsgLen)
		return cfg
	}
	kinds := []traffic.Kind{traffic.Uniform, traffic.BitReversal, traffic.Hotspot, traffic.Transpose}
	if dims[0] != dims[1] {
		kinds = kinds[:3] // transpose needs a square mesh
	}
	cfg.Pattern = traffic.New(kinds[rng.Intn(len(kinds))], m)
	cfg.MsgRate = traffic.MessageRate(m, 0.05+0.6*rng.Float64(), cfg.MsgLen)
	if rng.Intn(3) == 0 {
		cfg.Burst = &traffic.Burst{OnFrac: 0.2 + 0.5*rng.Float64(), MeanOn: 30 + 100*rng.Float64()}
	}
	if rng.Intn(3) == 0 {
		cfg.QoSHiFrac, cfg.Router.ResvVCs = 0.3, 1
	}
	return cfg
}

// counters are the network's own observables beside the stats.Run.
func counters(n *Network) [10]int64 {
	return [10]int64{n.Now(), n.Delivered(), n.SkippedCycles(), int64(n.Occupancy()), int64(n.QueuedMessages()),
		n.DroppedFlits(), n.DroppedMessages(), n.ReconvergenceEpochs(), n.Retransmits(), n.DupSuppressed()}
}

// TestResetEqualsNew: whatever ran in a network before, Reset(cfg) leaves
// it field for field the network New(cfg) builds, and the two then run
// identically. Each arena is first dirtied by a run that leaves the most
// state behind — aborted at its cycle budget with every buffer full; a
// fault schedule with purges and a reconfiguration drain; the reliability
// layer stopped with retransmissions outstanding; the event kernel stopped
// with express claims and deferred releases in the wheel; notification
// selection under bursty two-class traffic — and then reset through a
// sequence of random configurations of its shape, each run to a small
// budget so that it dirties the arena for the next. After every Reset the
// comparator (sameState) must find no difference from a fresh New — this
// is the "constructed state" assertion: a field added to Network, ni,
// Router, inputVC, outputVC, portState, a source or a selector and
// forgotten in the reset differs here by itself — and after running both,
// the stats.Run, the network counters and the whole reachable state must
// agree again.
func TestResetEqualsNew(t *testing.T) {
	m := topology.NewMesh(4, 4)
	sched, err := fault.ParseSchedule(m, "5-6@200:900,r10@400:1200")
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []struct {
		name  string
		shape resetShape
		dirty func(t *testing.T) *Network
	}{
		{"cycle budget, buffers full", resetShape{}, func(t *testing.T) *Network {
			// Two-flit messages, so that full buffers hold many runs and
			// their rings have grown past the seed slab.
			cfg := testConfig(m, true, table.KindES, selection.LRU, traffic.New(traffic.Uniform, m), traffic.MessageRate(m, 1.5, 2), 3)
			cfg.MsgLen = 2
			n := New(cfg)
			if run := n.Run(RunParams{WarmupMessages: 50, MeasureMessages: 50000, MaxCycles: 2500}); !run.Saturated || n.Occupancy() < 16*20 || grownRings(n) == 0 {
				t.Fatalf("the run ended %q with %d flits buffered and %d grown rings; it should exhaust its budget with the buffers full",
					run.SatReason, n.Occupancy(), grownRings(n))
			}
			return n
		}},
		{"fault schedule: purges and a drain", resetShape{}, func(t *testing.T) *Network {
			n := New(scheduleConfig(t, m, sched, true, traffic.MessageRate(m, 0.5, 20), 5))
			n.Run(RunParams{WarmupMessages: 50, MeasureMessages: 5000, MaxCycles: 1000})
			if n.DroppedFlits() == 0 || n.ReconvergenceEpochs() < 3 {
				t.Fatalf("%d flits purged over %d transitions; the schedule should have fired", n.DroppedFlits(), n.ReconvergenceEpochs())
			}
			return n
		}},
		{"reliability: retransmissions outstanding", resetShape{reliable: true}, func(t *testing.T) *Network {
			cfg := scheduleConfig(t, m, sched, false, traffic.MessageRate(m, 0.5, 20), 7)
			cfg.Reliability = &Reliability{RTO: 200, AckDelay: 16}
			n := New(cfg)
			n.Run(RunParams{WarmupMessages: 50, MeasureMessages: 5000, MaxCycles: 1000})
			if n.Retransmits() == 0 || !n.relBusyScan() {
				t.Fatalf("%d retransmissions, layer busy %v; the run should stop with the layer mid-recovery", n.Retransmits(), n.relBusyScan())
			}
			return n
		}},
		{"event kernel: express claims in the wheel", resetShape{event: true}, func(t *testing.T) *Network {
			cfg := testConfig(m, true, table.KindES, selection.LRU, traffic.New(traffic.Uniform, m), traffic.MessageRate(m, 0.3, 20), 9)
			cfg.EventMode = true
			n := New(cfg)
			releases := func() (k int) {
				n.credits.each(func(e *creditEvent) {
					if e.kind == creditRelease {
						k++
					}
				})
				return k
			}
			for i := 0; i < 3000 && (releases() == 0 || n.Occupancy() == 0); i++ {
				n.Step()
			}
			if releases() == 0 || n.Occupancy() == 0 {
				t.Fatal("never saw a deferred express release in the wheel beside buffered flits")
			}
			return n
		}},
		{"notify + bursty + QoS", resetShape{}, func(t *testing.T) *Network {
			cfg := testConfig(m, true, table.KindFull, selection.NotifyLRU, traffic.New(traffic.Hotspot, m), traffic.MessageRate(m, 0.7, 20), 11)
			cfg.Burst = &traffic.Burst{OnFrac: 0.25, MeanOn: 80}
			cfg.QoSHiFrac, cfg.Router.ResvVCs = 0.3, 1
			n := New(cfg)
			n.Run(RunParams{WarmupMessages: 50, MeasureMessages: 5000, MaxCycles: 1500})
			return n
		}},
	}
	points := 8
	if testing.Short() {
		points = 4
	}
	for si, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(100 + si)))
			arena := sc.dirty(t)
			for i := 0; i < points; i++ {
				cfg := randomPoint(t, rng, sc.shape)
				if i < 2 {
					// Back to back: Random keeps no state, so the second
					// finds nothing of the first.
					cfg.Selection = selection.Random
				}
				name := fmt.Sprintf("point %d (%s, selection %v, la %v, %v, trace %v, burst %v)",
					i, cfg.Mesh, cfg.Selection, cfg.Router.LookAhead,
					cfg.Faults, cfg.Trace != nil, cfg.Burst != nil)
				arena.Reset(cfg)
				fresh := New(cfg)
				if d := sameState(arena, fresh); len(d) != 0 {
					t.Fatalf("%s: the reset network differs from a fresh one:\n%s", name, joinLines(d))
				}
				p := RunParams{WarmupMessages: 20, MeasureMessages: 150, MaxCycles: 3000}
				ra, rf := arena.Run(p), fresh.Run(p)
				if !reflect.DeepEqual(ra, rf) || counters(arena) != counters(fresh) {
					t.Fatalf("%s: runs diverged:\nreset %+v %v\nfresh %+v %v", name, ra, counters(arena), rf, counters(fresh))
				}
				if d := sameState(arena, fresh); len(d) != 0 {
					t.Fatalf("%s: after identical runs the two networks differ:\n%s", name, joinLines(d))
				}
			}
		})
	}
}

// grownRings counts the input buffers whose run ring has outgrown the
// two-run window of the block's seed slab (router.fifo.grow).
func grownRings(n *Network) int {
	grown := 0
	for i := range n.routers {
		in := reflect.ValueOf(&n.routers[i]).Elem().FieldByName("in")
		for j := 0; j < in.Len(); j++ {
			if in.Index(j).FieldByName("buf").FieldByName("runs").Len() > 2 {
				grown++
			}
		}
	}
	return grown
}

func joinLines(s []string) string {
	out := ""
	for _, l := range s {
		out += "  " + l + "\n"
	}
	return out
}
