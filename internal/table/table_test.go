package table

import (
	"strings"
	"testing"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/topology"
)

var cls4 = routing.Class{NumVCs: 4, EscapeVCs: 1}

// The paper's central storage claim: ES routing is identical to full-table
// routing for every (router, destination) pair.
func TestESIdenticalToFullTable(t *testing.T) {
	m := topology.NewMesh(8, 8)
	algs := []routing.Algorithm{
		routing.NewDuato(m, cls4),
		routing.NewDimOrder(m, cls4, nil),
		routing.NewNorthLast(m, cls4),
		routing.NewWestFirst(m, cls4),
		routing.NewNegativeFirst(m, cls4),
	}
	for _, alg := range algs {
		full, es := Program(KindFull, m, alg, cls4), Program(KindES, m, alg, cls4)
		for node := topology.NodeID(0); int(node) < m.N(); node++ {
			for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
				a, b := full.Lookup(node, dst, 0), es.Lookup(node, dst, 0)
				if !a.Equal(b) {
					t.Fatalf("%s at node %d dst %d: full %v != es %v", alg.Name(), node, dst, a, b)
				}
			}
		}
	}
}

// And both must agree with the algorithm they were programmed from.
func TestTablesMatchAlgorithm(t *testing.T) {
	m := topology.NewMesh(8, 8)
	alg := routing.NewDuato(m, cls4)
	for _, k := range []Kind{KindFull, KindES} {
		r := Program(k, m, alg, cls4)
		for _, node := range []topology.NodeID{0, 7, 27, 56, 63} {
			for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
				if !r.Lookup(node, dst, 0).Equal(alg.Route(node, dst, 0)) {
					t.Fatalf("%s at node %d dst %d disagrees with algorithm", k, node, dst)
				}
			}
		}
	}
}

func TestEntriesCounts(t *testing.T) {
	m := topology.NewMesh(16, 16)
	cases := []struct {
		k    Kind
		want int
	}{
		{KindFull, 256},
		{KindES, 9},
		{KindMetaRow, 32},   // 16 clusters + 16 sub
		{KindMetaBlock, 32}, // 16 clusters + 16 sub
		{KindInterval, 5},
	}
	for _, c := range cases {
		if got := c.k.Entries(m); got != c.want {
			t.Errorf("%s entries = %d want %d", c.k, got, c.want)
		}
	}
	if got := KindES.Entries(topology.NewTorus(8, 8, 8)); got != 27 {
		t.Errorf("3-D ES entries = %d want 27", got)
	}
}

func TestES3D(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	alg := routing.NewDuato(m, cls4)
	es := Program(KindES, m, alg, cls4)
	if len(es.row) != 27 {
		t.Fatalf("3-D ES row holds %d entries", len(es.row))
	}
	for _, node := range []topology.NodeID{0, 21, 63} {
		for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
			if !es.Lookup(node, dst, 0).Equal(alg.Route(node, dst, 0)) {
				t.Fatalf("3-D ES != algorithm at node %d dst %d", node, dst)
			}
		}
	}
}

// On a torus the escape VCs depend on where the router sits relative to the
// dateline, so each router's ES table is its own sign entries: they still
// equal the algorithm, and so does the shared lookup.
func TestESTorus(t *testing.T) {
	m := topology.NewTorus(6, 6)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 2}
	alg := routing.NewDuato(m, cls)
	sr := alg.(routing.SignRouted)
	es := Program(KindES, m, alg, cls)
	for _, node := range []topology.NodeID{0, 14, 35} {
		for dl := uint8(0); dl < 4; dl++ {
			for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
				want := alg.Route(node, dst, dl)
				if got := sr.RouteSigns(node, m.SignIndex(node, dst), dl); !got.Equal(want) {
					t.Fatalf("torus ES entry != algorithm at node %d dst %d dl %d", node, dst, dl)
				}
				if !es.Lookup(node, dst, dl).Equal(want) {
					t.Fatalf("torus lookup != algorithm at node %d dst %d dl %d", node, dst, dl)
				}
			}
		}
	}
}

// Fig. 7(d): the ES table programming for North-Last routing at node (1,1)
// of a 3x3 mesh.
func TestESDumpMatchesFig7(t *testing.T) {
	m := topology.NewMesh(3, 3)
	dump := Program(KindES, m, routing.NewNorthLast(m, cls4), cls4).Dump()
	want := []string{
		"(-,-) -> -X,-Y", // dest (0,0): W,S
		"(0,-) -> -Y",    // dest (1,0): S
		"(+,-) -> +X,-Y", // dest (2,0): E,S
		"(-,0) -> -X",    // dest (0,1): W
		"(0,0) -> L",     // self
		"(+,0) -> +X",    // dest (2,1): E
		"(-,+) -> -X",    // dest (0,2): W only (north-last)
		"(0,+) -> +Y",    // dest (1,2): N
		"(+,+) -> +X",    // dest (2,2): E only (north-last)
	}
	for _, w := range want {
		if !strings.Contains(dump, w) {
			t.Errorf("dump missing %q:\n%s", w, dump)
		}
	}
}

func TestESNotSignExpressibleFails(t *testing.T) {
	// An artificial algorithm that routes to even destinations X-first
	// and odd destinations Y-first is not a function of offset signs, so
	// an ES table cannot encode it.
	m := topology.NewMesh(4, 4)
	alg := parityAlg{
		xy: routing.NewDimOrder(m, cls4, nil),
		yx: routing.NewDimOrder(m, cls4, []int{1, 0}),
	}
	err := Verify(KindES, m, alg, cls4)
	if err == nil || !strings.Contains(err.Error(), "sign-expressible") {
		t.Errorf("Verify = %v, want the sign-expressibility refusal", err)
	}
	if err := Verify(KindFull, m, alg, cls4); err != nil {
		t.Errorf("a full table holds any function: %v", err)
	}
}

type parityAlg struct{ xy, yx routing.Algorithm }

func (parityAlg) Name() string        { return "parity" }
func (parityAlg) Deterministic() bool { return true }
func (a parityAlg) Route(cur, dst topology.NodeID, dl uint8) flow.RouteSet {
	if dst%2 == 0 {
		return a.xy.Route(cur, dst, dl)
	}
	return a.yx.Route(cur, dst, dl)
}
