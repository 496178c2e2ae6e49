package core_test

import (
	"fmt"
	"strings"
	"testing"

	"lapses/internal/core"
	"lapses/internal/fault"
)

// TestScheduleKeys pins the cache-key contract for transient-fault
// schedules: a static schedule is the same simulation as the equivalent
// plain fault plan and must share its key byte for byte (old cache lines
// stay valid), while timed schedules and the reliability layer always key
// apart from everything else.
func TestScheduleKeys(t *testing.T) {
	t.Parallel()
	base := core.DefaultConfig()
	base.Dims = []int{8, 8}
	m := base.Mesh()

	plan, err := fault.Parse(m, "27-28,r9")
	if err != nil {
		t.Fatal(err)
	}
	static, err := fault.ParseSchedule(m, "27-28,r9")
	if err != nil {
		t.Fatal(err)
	}
	asPlan, asSched := base, base
	asPlan.Faults = plan
	asSched.Schedule = static
	if asPlan.Key() != asSched.Key() {
		t.Errorf("static schedule keys differently from its plan:\n%s\n%s", asSched.Key(), asPlan.Key())
	}

	timed, err := fault.ParseSchedule(m, "27-28@500:2000")
	if err != nil {
		t.Fatal(err)
	}
	withSched := base
	withSched.Schedule = timed
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

	both := base
	both.Faults = plan
	both.Schedule = timed
	if err := both.Validate(); err == nil {
		t.Error("Faults + non-static Schedule validated")
	}
}

// TestScheduleStaticCollapse: running a static schedule produces the
// bit-identical Result of running its plan directly — the degenerate
// schedule is the same simulation, not a near miss.
func TestScheduleStaticCollapse(t *testing.T) {
	t.Parallel()
	base := core.DefaultConfig().QuickFidelity()
	base.Dims = []int{8, 8}
	m := base.Mesh()
	plan, err := fault.Parse(m, "27-28,35-43")
	if err != nil {
		t.Fatal(err)
	}
	static, err := fault.ParseSchedule(m, "27-28,35-43")
	if err != nil {
		t.Fatal(err)
	}
	asPlan, asSched := base, base
	asPlan.Faults = plan
	asSched.Schedule = static
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
	c.Schedule = sched
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
	c.Schedule = sched
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
