package core

import (
	"strings"
	"testing"

	"lapses/internal/fault"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// faultSmoke returns a quick faulted 8x8 configuration.
func faultSmoke(t *testing.T, nLinks, nRouters int, seed int64) Config {
	t.Helper()
	c := smoke()
	p, err := fault.Random(c.Mesh(), nLinks, nRouters, seed)
	if err != nil {
		t.Fatal(err)
	}
	c.Faults = fault.Static(p)
	return c
}

func TestFaultedRunSmoke(t *testing.T) {
	for _, alg := range []Alg{AlgDuato, AlgXY} {
		c := faultSmoke(t, 4, 1, 3)
		c.Algorithm = alg
		c.Load = 0.1
		res, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Saturated {
			t.Fatalf("%s: low-load faulted run saturated: %s", alg, res.SatReason)
		}
		if res.Delivered < int64(c.Measure) {
			t.Fatalf("%s: delivered %d < %d", alg, res.Delivered, c.Measure)
		}
	}
}

// TestPlumbingKeyedByFaults is the memoization regression test: two
// configurations differing only in their fault plan must not share the
// process-wide plumbing (algorithm + tables), and equal damage expressed
// through distinct Plan values must still share.
func TestPlumbingKeyedByFaults(t *testing.T) {
	healthy := smoke()
	faulted := faultSmoke(t, 4, 0, 9)

	ph, err := healthy.plumbing()
	if err != nil {
		t.Fatal(err)
	}
	pf, err := faulted.plumbing()
	if err != nil {
		t.Fatal(err)
	}
	if ph == pf {
		t.Fatal("healthy and faulted configs share plumbing")
	}
	// The degraded tables must actually differ somewhere: at least one
	// router near the damage routes some destination differently.
	differs := false
	th, tf := ph.routes[0], pf.routes[0]
	for id := topology.NodeID(0); int(id) < ph.m.N() && !differs; id++ {
		for dst := topology.NodeID(0); int(dst) < ph.m.N(); dst++ {
			if !th.Lookup(id, dst, 0).Equal(tf.Lookup(id, dst, 0)) {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Fatal("faulted tables identical to healthy tables")
	}

	// Same damage, different Plan and Schedule values: plumbing and sweep
	// keys match.
	faulted2 := faultSmoke(t, 4, 0, 9)
	if faulted.Faults == faulted2.Faults {
		t.Fatal("test needs distinct Schedule values")
	}
	pf2, err := faulted2.plumbing()
	if err != nil {
		t.Fatal(err)
	}
	if pf2 != pf {
		t.Fatal("equal fault content did not share plumbing")
	}
	if faulted.Key() != faulted2.Key() {
		t.Fatal("equal fault content produced different sweep keys")
	}
	if healthy.Key() == faulted.Key() {
		t.Fatal("fault plan missing from Config.Key")
	}
}

// A disconnecting plan must surface as a descriptive Run error.
func TestDisconnectedPlanError(t *testing.T) {
	c := smoke()
	c.Dims = []int{2, 2}
	m := c.Mesh()
	p, err := fault.New(m, []fault.Link{
		{Node: 0, Port: topology.PortPlus(0)},
		{Node: 0, Port: topology.PortPlus(1)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Faults = fault.Static(p)
	_, err = Run(c)
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("want disconnection error, got %v", err)
	}
}

// Meta tables have no degraded form, and traces cannot target dead
// routers; both must be rejected at the Validate gate, not deep in Run.
func TestFaultsRejectMetaTables(t *testing.T) {
	c := faultSmoke(t, 2, 0, 1)
	c.Table = table.KindMetaBlock
	if err := c.Validate(); err == nil {
		t.Fatal("meta table + faults accepted")
	}
}

func TestFaultsRejectTraceWithDeadRouters(t *testing.T) {
	c := faultSmoke(t, 0, 1, 1)
	tr, err := traffic.NewTrace([]traffic.TraceMsg{{At: 0, Src: 0, Dst: 1, Length: 4}})
	if err != nil {
		t.Fatal(err)
	}
	c.Trace = tr
	c.Warmup, c.Measure = 0, 1
	err = c.Validate()
	if err == nil || !strings.Contains(err.Error(), "dead routers") {
		t.Fatalf("trace + dead-router plan: want dead-routers error, got %v", err)
	}
	// Link-only plans remain valid with traces.
	c2 := faultSmoke(t, 2, 0, 1)
	c2.Trace = tr
	c2.Warmup, c2.Measure = 0, 1
	if err := c2.Validate(); err != nil {
		t.Fatalf("trace + link-only plan rejected: %v", err)
	}
}

// Determinism: the same faulted config run twice must produce identical
// results (fault plans and degraded routing are fully deterministic).
func TestFaultedRunDeterministic(t *testing.T) {
	c := faultSmoke(t, 3, 1, 5)
	c.Load = 0.15
	a, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("faulted runs diverge:\n%+v\n%+v", a, b)
	}
}
