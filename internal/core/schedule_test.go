package core_test

import (
	"fmt"
	"strings"
	"testing"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/topology"
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
	if k := withSched.Key(); !strings.Contains(k, ",fs[27-28@500:2000]") {
		t.Errorf("timed schedule missing from key %s", k)
	}
	withRel := base
	withRel.Reliability = &core.Reliability{RTO: 512}
	if k := withRel.Key(); !strings.Contains(k, ",rel[512,0,0]") {
		t.Errorf("reliability layer missing from key %s", k)
	}
	if k := base.Key(); strings.Contains(k, ",fs[") || strings.Contains(k, ",rel[") {
		t.Errorf("healthy key polluted: %s", k)
	}
}

// TestKeyLiterals pins Config.Key to the bytes the durable result store
// already holds for a healthy config, a static plan, the same damage
// spelled as an untimed schedule (items reordered), and a timed schedule
// with the reliability layer: a refactor of how faults are represented
// must not orphan a single stored entry.
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
	stormy.Reliability = &core.Reliability{RTO: 400, MaxAttempts: 8}
	const healthy = "d[8 8],tfalse,v4,e1,b20,o4,l1,latrue,ctfalse,a2,tb1,s3,p0,ld3fc999999999999a,ml20,tr0x0,w2000,m30000,mc0,sl40b3880000000000,sd1"
	for _, tc := range []struct {
		name string
		cfg  core.Config
		want string
	}{
		{"healthy", base, healthy},
		{"static plan", static, healthy + ",f[27-28;35-43;r9]"},
		{"untimed schedule", spelled, healthy + ",f[27-28;35-43;r9]"},
		{"timed schedule", stormy, healthy + ",fs[27-28@1100:1800;r9@1200],rel[400,8,0]"},
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
	c.Reliability = &core.Reliability{RTO: 600, MaxAttempts: 20, AckDelay: 32}
	r, err := core.Run(c)
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
