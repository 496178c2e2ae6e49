package table

import (
	"testing"

	"lapses/internal/fault"
	"lapses/internal/routing"
	"lapses/internal/topology"
)

// Degraded-table equivalence: with a fault-aware algorithm, the ES table's
// sign entries + exception overlay must reproduce the algorithm (and thus
// the full table) exactly at every live router, and the interval table's
// longest-run intervals + exceptions must reproduce the deterministic
// function. This is the fault analogue of the paper's ES == full-table
// equivalence claim.
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

	sawException := false
	for node := topology.NodeID(0); int(node) < m.N(); node++ {
		if plan.NodeDead(node) {
			continue
		}
		es := NewES(m, duato, node)
		full := NewFull(m, duato, node)
		iv := NewInterval(m, det, detCls, node)
		if es.Entries() > 9 {
			sawException = true
		}
		for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
			if plan.NodeDead(dst) {
				continue
			}
			want := duato.Route(node, dst, 0)
			if got := es.Lookup(dst, 0); !got.Equal(want) {
				t.Fatalf("ES at %d for dst %d: got %v want %v", node, dst, got, want)
			}
			if got := full.Lookup(dst, 0); !got.Equal(want) {
				t.Fatalf("full at %d for dst %d: got %v want %v", node, dst, got, want)
			}
			wantDet := det.Route(node, dst, 0)
			if got := iv.Lookup(dst, 0); !got.Equal(wantDet) {
				t.Fatalf("interval at %d for dst %d: got %v want %v", node, dst, got, wantDet)
			}
			// Look-ahead lookups must agree with the algorithm at the
			// neighbor (tables are per-router under faults).
			for p := topology.Port(1); int(p) < m.NumPorts(); p++ {
				nb, ok := m.Neighbor(node, p)
				if !ok || plan.NodeDead(nb) {
					continue
				}
				wantLA := duato.Route(nb, dst, 0)
				if got := es.LookupAt(p, dst, 0); !got.Equal(wantLA) {
					t.Fatalf("ES LookupAt %d via %s for dst %d: got %v want %v",
						node, m.PortName(p), dst, got, wantLA)
				}
			}
		}
	}
	if !sawException {
		t.Fatal("no router needed exception entries — fault plan exercised nothing")
	}
}

// The ES exception overlay must be minimal: the base sign entry holds
// the majority route, so the exception count per sign vector is the
// total realizations minus the largest agreeing group — never more.
func TestESExceptionsAreMajorityMinimal(t *testing.T) {
	m := topology.NewMesh(6, 6)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	plan, err := fault.Random(m, 5, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFaultDuato(m, cls, plan)
	if err != nil {
		t.Fatal(err)
	}
	for node := topology.NodeID(0); int(node) < m.N(); node++ {
		es := NewES(m, alg, node)
		// Recompute the minimal overlay size from the algorithm.
		perSign := map[int]map[string]int{}
		for dst := 0; dst < m.N(); dst++ {
			idx := m.SignIndex(node, topology.NodeID(dst))
			if perSign[idx] == nil {
				perSign[idx] = map[string]int{}
			}
			perSign[idx][alg.Route(node, topology.NodeID(dst), 0).String()]++
		}
		want := 0
		for _, counts := range perSign {
			total, max := 0, 0
			for _, n := range counts {
				total += n
				if n > max {
					max = n
				}
			}
			want += total - max
		}
		if got := es.Entries() - 9; got != want {
			t.Fatalf("node %d: %d exception entries, minimal is %d", node, got, want)
		}
	}
}

// A dead router's label has no interval and no exception; Lookup must
// return the algorithm's empty set, not panic (parity with ES and Full).
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
	iv := NewInterval(m, det, detCls, 0)
	if got := iv.Lookup(dead, 0); !got.Empty() {
		t.Fatalf("dead label lookup = %v, want empty", got)
	}
	if got := det.Route(0, dead, 0); !got.Empty() {
		t.Fatalf("algorithm routes to dead router: %v", got)
	}
}

// Healthy algorithms must keep exactly 3^n ES entries and NumPorts
// interval entries: the exception overlay only engages for
// position-dependent routing.
func TestHealthyTablesHaveNoExceptions(t *testing.T) {
	m := topology.NewMesh(6, 6)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	alg := routing.NewDuato(m, cls)
	for _, node := range []topology.NodeID{0, 7, 35} {
		if got := NewES(m, alg, node).Entries(); got != 9 {
			t.Fatalf("healthy ES at %d has %d entries, want 9", node, got)
		}
	}
	det := routing.NewDimOrder(m, cls, []int{1, 0})
	if got := NewInterval(m, det, cls, 7).Entries(); got != m.NumPorts() {
		t.Fatalf("healthy interval has %d entries, want %d", NewInterval(m, det, cls, 7).Entries(), m.NumPorts())
	}
}
