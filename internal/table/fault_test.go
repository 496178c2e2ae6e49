package table

import (
	"testing"

	"lapses/internal/fault"
	"lapses/internal/routing"
	"lapses/internal/topology"
)

// Degraded-table equivalence: with a fault-aware algorithm, every
// organization a faulted run may use — es and full over adaptive up*/down*,
// interval over the deterministic one — must reproduce the algorithm at
// every router, neighbor included (the look-ahead lookup), and the plan
// must actually move routes. This is the fault analogue of the paper's ES
// == full-table equivalence claim.
func TestFaultTablesMatchAlgorithm(t *testing.T) {
	m := topology.NewMesh(6, 6)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	detCls := routing.Class{NumVCs: 4, EscapeVCs: 0}
	plan, err := fault.Random(m, 5, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	duato, err := routing.NewFaultDuato(m, cls, plan)
	if err != nil {
		t.Fatal(err)
	}
	det, err := routing.NewFaultDimOrder(m, detCls, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k   Kind
		alg routing.Algorithm
		cls routing.Class
	}{{KindES, duato, cls}, {KindFull, duato, cls}, {KindInterval, det, detCls}} {
		if err := Verify(c.k, m, c.alg, c.cls); err != nil {
			t.Fatal(err)
		}
	}

	healthy := Program(KindES, m, routing.NewDuato(m, cls), cls)
	degraded := Program(KindES, m, duato, cls)
	for node := topology.NodeID(0); int(node) < m.N(); node++ {
		for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
			if !plan.NodeDead(node) && !plan.NodeDead(dst) && !healthy.Lookup(node, dst, 0).Equal(degraded.Lookup(node, dst, 0)) {
				return
			}
		}
	}
	t.Fatal("no live route moved — fault plan exercised nothing")
}

// A dead router's label is unroutable; the interval lookup must return the
// algorithm's empty set, not panic (parity with ES and Full).
func TestIntervalDeadLabelEmpty(t *testing.T) {
	m := topology.NewMesh(4, 4)
	detCls := routing.Class{NumVCs: 4, EscapeVCs: 0}
	dead := topology.NodeID(5)
	plan, err := fault.New(m, nil, []topology.NodeID{dead})
	if err != nil {
		t.Fatal(err)
	}
	det, err := routing.NewFaultDimOrder(m, detCls, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := Program(KindInterval, m, det, detCls).Lookup(0, dead, 0); !got.Empty() {
		t.Fatalf("dead label lookup = %v, want empty", got)
	}
	if got := det.Route(0, dead, 0); !got.Empty() {
		t.Fatalf("algorithm routes to dead router: %v", got)
	}
}

// Healthy algorithms keep exactly the 3^n ES entries, shared by every
// router, whatever organization they model; a position-dependent one keeps
// none and routes from its own next-hop arrays.
func TestHealthyTablesHaveNoExceptions(t *testing.T) {
	m := topology.NewMesh(6, 6)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	duato := routing.NewDuato(m, cls)
	yx := routing.NewDimOrder(m, cls, []int{1, 0})
	for _, c := range []struct {
		k   Kind
		alg routing.Algorithm
	}{{KindES, duato}, {KindFull, duato}, {KindInterval, yx}} {
		if got := len(Program(c.k, m, c.alg, cls).row); got != 9 {
			t.Errorf("healthy %s holds %d route sets, want 9", c.k, got)
		}
	}
	plan, err := fault.Random(m, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := routing.NewFaultDuato(m, cls, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := Program(KindES, m, faulted, cls).row; got != nil {
		t.Errorf("faulted es holds %d route sets, want none", len(got))
	}
}
