package core_test

import (
	"fmt"
	"strings"
	"testing"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/network"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// TestScheduleKeys pins the cache-key contract for transient-fault
// schedules: a static schedule is the same simulation as the equivalent
// plain fault plan and must share its key byte for byte (old cache lines
// stay valid), while timed schedules and the reliability layer always key
// apart from everything else, and damage that never happens keys like none.
func TestScheduleKeys(t *testing.T) {
	t.Parallel()
	base := core.DefaultConfig()
	base.Dims = []int{8, 8}
	m := base.Mesh()

	plan, err := fault.New(m, []fault.Link{{Node: 27, Port: topology.PortPlus(0)}}, []topology.NodeID{9})
	if err != nil {
		t.Fatal(err)
	}
	static, err := fault.ParseSchedule(m, "27-28,r9")
	if err != nil {
		t.Fatal(err)
	}
	asPlan, asSched := base, base
	asPlan.Faults = fault.Static(plan)
	asSched.Faults = static
	if asPlan.Key() != asSched.Key() {
		t.Errorf("static schedule keys differently from its plan:\n%s\n%s", asSched.Key(), asPlan.Key())
	}
	none, err := fault.ParseSchedule(m, "")
	if err != nil {
		t.Fatal(err)
	}
	asNone := base
	asNone.Faults = none
	if asNone.Key() != base.Key() {
		t.Errorf("an empty schedule keys apart from a healthy config:\n%s\n%s", asNone.Key(), base.Key())
	}

	timed, err := fault.ParseSchedule(m, "27-28@500:2000")
	if err != nil {
		t.Fatal(err)
	}
	withSched := base
	withSched.Faults = timed
	if k := withSched.Key(); !strings.Contains(k, ",f[27-28@500:2000]") {
		t.Errorf("timed schedule missing from key %s", k)
	}
	withRel := base
	withRel.Reliability = true
	if k := withRel.Key(); !strings.HasSuffix(k, ",rel") {
		t.Errorf("reliability layer missing from key %s", k)
	}
	if k := base.Key(); strings.Contains(k, ",f[") || strings.Contains(k, ",rel") {
		t.Errorf("healthy key polluted: %s", k)
	}
}

// TestKeyLiterals pins Config.Key to the bytes the durable result store
// holds under this SemanticsVersion for a healthy config, a static plan,
// the same damage spelled as an untimed schedule (items reordered), and a
// timed schedule with the reliability layer, for every other optional
// term (event mode, bursts, QoS, a trace) and shape (a
// torus, a 3-D mesh), and for a config canonical folds into another's key
// (a full table): a refactor of how faults are represented, or of how the
// key is built, must not orphan a single stored entry.
func TestKeyLiterals(t *testing.T) {
	t.Parallel()
	base := core.DefaultConfig()
	base.Dims = []int{8, 8}
	m := base.Mesh()
	plan, err := fault.New(m, []fault.Link{
		{Node: 27, Port: topology.PortPlus(0)},
		{Node: 35, Port: topology.PortPlus(1)},
	}, []topology.NodeID{9})
	if err != nil {
		t.Fatal(err)
	}
	untimed, err := fault.ParseSchedule(m, "35-43,r9,27-28")
	if err != nil {
		t.Fatal(err)
	}
	timed, err := fault.ParseSchedule(m, "27-28@1100:1800,r9@1200")
	if err != nil {
		t.Fatal(err)
	}
	static, spelled, stormy := base, base, base
	static.Faults = fault.Static(plan)
	spelled.Faults = untimed
	stormy.Faults = timed
	stormy.Reliability = true
	event, burst, qos, torus, cube, traced := base, base, base, base, base, base
	event.EventMode = true
	burst.Burst = &traffic.Burst{OnFrac: 0.25, MeanOn: 50}
	qos.QoS = 0.1
	torus.Torus = true
	cube.Dims = []int{4, 4, 4}
	tr, err := traffic.NewTrace([]traffic.TraceMsg{{At: 0, Src: 1, Dst: 2, Length: 20}, {At: 5, Src: 3, Dst: 0, Length: 4}})
	if err != nil {
		t.Fatal(err)
	}
	traced.Trace, traced.Warmup, traced.Measure = tr, 0, 2
	full := base
	full.Table = table.KindFull
	const healthy = "d[8 8],tfalse,latrue,a2,tb1,s3,p0,ld3fc999999999999a,ml20,w2000,m30000,mc0,sd1"
	for _, tc := range []struct {
		name string
		cfg  core.Config
		want string
	}{
		{"healthy", base, healthy},
		{"static plan", static, healthy + ",f[27-28;35-43;r9]"},
		{"untimed schedule", spelled, healthy + ",f[27-28;35-43;r9]"},
		{"timed schedule", stormy, healthy + ",f[27-28@1100:1800;r9@1200],rel"},
		{"event mode", event, healthy + ",ev"},
		{"burst", burst, healthy + ",mm[3fd0000000000000,4049000000000000]"},
		{"qos", qos, healthy + ",q[3fb999999999999a]"},
		{"torus", torus, "d[8 8],ttrue,latrue,a2,tb1,s3,p0,ld3fc999999999999a,ml20,w2000,m30000,mc0,sd1"},
		{"3-D mesh", cube, "d[4 4 4],tfalse,latrue,a2,tb1,s3,p0,ld3fc999999999999a,ml20,w2000,m30000,mc0,sd1"},
		{"trace", traced, "d[8 8],tfalse,latrue,a2,tb1,s3,p0,ld3fc999999999999a,ml20,tr8b5f657d1d25011ebc5bd58a8c64026551b7b62591d041012aff307282570703,w0,m2,mc0,sd1"},
		{"full table", full, healthy},
	} {
		if got := tc.cfg.Key(); got != tc.want {
			t.Errorf("%s: key\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestScheduleStaticCollapse: running a static schedule produces the
// bit-identical Result of running its plan directly — the degenerate
// schedule is the same simulation, not a near miss.
func TestScheduleStaticCollapse(t *testing.T) {
	t.Parallel()
	base := core.DefaultConfig()
	base.Dims, base.Warmup, base.Measure = []int{8, 8}, 200, 3000
	m := base.Mesh()
	plan, err := fault.New(m, []fault.Link{
		{Node: 27, Port: topology.PortPlus(0)},
		{Node: 35, Port: topology.PortPlus(1)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	static, err := fault.ParseSchedule(m, "27-28,35-43")
	if err != nil {
		t.Fatal(err)
	}
	asPlan, asSched := base, base
	asPlan.Faults = fault.Static(plan)
	asSched.Faults = static
	a, err := core.Run(asPlan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(asSched)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("static schedule diverges from its plan:\n%+v\n%+v", a, b)
	}
}

// TestScheduleRunEquivalence runs one scheduled-fault configuration —
// failures landing mid-measurement, both healing — twice through the core
// API and requires bit-identical Results: the transition path is as
// deterministic as the healthy kernel. It also pins that the schedule
// counters reach the Result.
func TestScheduleRunEquivalence(t *testing.T) {
	t.Parallel()
	c := core.DefaultConfig()
	c.Dims = []int{8, 8}
	c.Load = 0.2
	c.Warmup, c.Measure = 100, 1500
	c.Seed = 3
	sched, err := fault.ParseSchedule(c.Mesh(), "27-28@800:2500,r9@1000:3000")
	if err != nil {
		t.Fatal(err)
	}
	c.Faults = sched
	var want string
	for rep := 0; rep < 2; rep++ {
		r, err := core.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.Saturated {
			t.Fatalf("saturated: %s", r.SatReason)
		}
		if r.ReconvergenceEpochs != 4 {
			t.Fatalf("expected 4 transitions, saw %d", r.ReconvergenceEpochs)
		}
		if r.DroppedFlits == 0 {
			t.Fatal("transitions destroyed no flits")
		}
		if r.DeliveredFraction <= 0 || r.DeliveredFraction > 1 {
			t.Fatalf("delivered fraction %g outside (0, 1]", r.DeliveredFraction)
		}
		got := fmt.Sprintf("%+v", r)
		if rep == 0 {
			want = got
		} else if got != want {
			t.Errorf("rerun diverged:\n%s\nwant\n%s", got, want)
		}
	}
}

// TestScheduleReliabilityRun: with the reliability layer on, a scheduled
// fault storm costs latency but no messages — the delivered fraction is
// exactly 1 and nothing is abandoned or lost.
func TestScheduleReliabilityRun(t *testing.T) {
	t.Parallel()
	c := core.DefaultConfig()
	c.Dims = []int{8, 8}
	c.Load = 0.2
	c.Warmup, c.Measure = 100, 1500
	c.Seed = 3
	sched, err := fault.ParseSchedule(c.Mesh(), "27-28@800:2500,36-37@900:2600")
	if err != nil {
		t.Fatal(err)
	}
	c.Faults = sched
	c.Reliability = true
	// A shorter timeout and ack delay than the layer's, and a larger
	// budget: kernel parameters, set through the test seam.
	r, err := core.RunWith(c, func(nc *network.Config) {
		nc.Reliability = &network.Reliability{RTO: 600, MaxAttempts: 20, AckDelay: 32}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Saturated {
		t.Fatalf("saturated: %s", r.SatReason)
	}
	if r.DroppedFlits == 0 {
		t.Fatal("storm destroyed no flits; pick a harsher schedule")
	}
	if r.DeliveredFraction != 1 {
		t.Fatalf("delivered fraction %g != 1 with reliability on", r.DeliveredFraction)
	}
	if r.DroppedMessages != 0 || r.Abandoned != 0 {
		t.Fatalf("reliability left %d dropped / %d abandoned", r.DroppedMessages, r.Abandoned)
	}
}
