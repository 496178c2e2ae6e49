package table

import (
	"fmt"
	"strings"
	"testing"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/topology"
)

var cls4 = routing.Class{NumVCs: 4, EscapeVCs: 1}

func buildAll(t *testing.T, m *topology.Mesh, alg routing.Algorithm, node topology.NodeID) []Table {
	t.Helper()
	return []Table{
		NewFull(m, alg, node),
		NewES(m, alg, node),
	}
}

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
		for node := topology.NodeID(0); int(node) < m.N(); node++ {
			full := NewFull(m, alg, node)
			es := NewES(m, alg, node)
			for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
				a, b := full.Lookup(dst, 0), es.Lookup(dst, 0)
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
	for _, node := range []topology.NodeID{0, 7, 27, 56, 63} {
		for _, tbl := range buildAll(t, m, alg, node) {
			for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
				if !tbl.Lookup(dst, 0).Equal(alg.Route(node, dst, 0)) {
					t.Fatalf("%s at node %d dst %d disagrees with algorithm", tbl.Name(), node, dst)
				}
			}
		}
	}
}

// Look-ahead consistency: the candidates a table computes for its neighbor
// must equal what the neighbor's own table would produce.
func TestLookAheadConsistency(t *testing.T) {
	m := topology.NewMesh(8, 8)
	alg := routing.NewDuato(m, cls4)
	kinds := []Kind{KindFull, KindES, KindMetaBlock, KindMetaRow}
	for _, k := range kinds {
		for _, node := range []topology.NodeID{0, 9, 36, 63} {
			tbl := Build(k, m, alg, cls4, node)
			for p := topology.Port(1); int(p) < m.NumPorts(); p++ {
				nb, ok := m.Neighbor(node, p)
				if !ok {
					continue
				}
				nbTbl := Build(k, m, alg, cls4, nb)
				for dst := topology.NodeID(0); int(dst) < m.N(); dst += 3 {
					la := tbl.LookupAt(p, dst, 0)
					own := nbTbl.Lookup(dst, 0)
					if !la.Equal(own) {
						t.Fatalf("%s: LA at %d via %s for dst %d: %v != neighbor's %v",
							tbl.Name(), node, m.PortName(p), dst, la, own)
					}
				}
			}
		}
	}
}

func TestEntriesCounts(t *testing.T) {
	m := topology.NewMesh(16, 16)
	alg := routing.NewDuato(m, cls4)
	yx := routing.NewDimOrder(m, cls4, []int{1, 0})
	node := topology.NodeID(17)
	cases := []struct {
		tbl  Table
		want int
	}{
		{NewFull(m, alg, node), 256},
		{NewES(m, alg, node), 9},
		{NewMeta(m, alg, cls4, node, MapRow), 32},   // 16 clusters + 16 sub
		{NewMeta(m, alg, cls4, node, MapBlock), 32}, // 16 clusters + 16 sub
		{NewInterval(m, yx, cls4, node), 5},
	}
	for _, c := range cases {
		if got := c.tbl.Entries(); got != c.want {
			t.Errorf("%s entries = %d want %d", c.tbl.Name(), got, c.want)
		}
	}
	if ESEntryCount(3) != 27 {
		t.Errorf("3-D ES entries = %d want 27", ESEntryCount(3))
	}
}

func TestES3D(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	alg := routing.NewDuato(m, cls4)
	for _, node := range []topology.NodeID{0, 21, 63} {
		es := NewES(m, alg, node)
		if es.Entries() != 27 {
			t.Fatalf("3-D ES entries = %d", es.Entries())
		}
		full := NewFull(m, alg, node)
		for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
			if !es.Lookup(dst, 0).Equal(full.Lookup(dst, 0)) {
				t.Fatalf("3-D ES != full at node %d dst %d", node, dst)
			}
		}
	}
}

func TestESTorus(t *testing.T) {
	m := topology.NewTorus(6, 6)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 2}
	alg := routing.NewDuato(m, cls)
	for _, node := range []topology.NodeID{0, 14, 35} {
		es := NewES(m, alg, node)
		full := NewFull(m, alg, node)
		for dl := uint8(0); dl < 4; dl++ {
			for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
				if !es.Lookup(dst, dl).Equal(full.Lookup(dst, dl)) {
					t.Fatalf("torus ES != full at node %d dst %d dl %d", node, dst, dl)
				}
				if !es.Lookup(dst, dl).Equal(alg.Route(node, dst, dl)) {
					t.Fatalf("torus ES != algorithm at node %d dst %d dl %d", node, dst, dl)
				}
			}
		}
	}
}

// Fig. 7(d): the ES table programming for North-Last routing at node (1,1)
// of a 3x3 mesh.
func TestESDumpMatchesFig7(t *testing.T) {
	m := topology.NewMesh(3, 3)
	nl := routing.NewNorthLast(m, cls4)
	es := NewES(m, nl, m.ID(topology.Coord{1, 1}))
	dump := es.Dump()
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

func TestESNotSignExpressiblePanics(t *testing.T) {
	// An artificial algorithm that routes to even destinations X-first
	// and odd destinations Y-first is not a function of offset signs, so
	// the ES builder must refuse it.
	m := topology.NewMesh(4, 4)
	alg := parityAlg{
		xy: routing.NewDimOrder(m, cls4, nil),
		yx: routing.NewDimOrder(m, cls4, []int{1, 0}),
	}
	defer func() {
		if recover() == nil {
			t.Error("expected sign-expressibility panic")
		}
	}()
	NewES(m, alg, m.ID(topology.Coord{2, 2}))
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

// BuildAll is Build for every node: same organization, same answers, in
// node order, whatever goroutine programmed each table.
func TestBuildAllMatchesBuild(t *testing.T) {
	m := topology.NewMesh(5, 4)
	alg := routing.NewDuato(m, cls4)
	for _, k := range []Kind{KindFull, KindES, KindMetaBlock} {
		tbls := BuildAll(k, m, alg, cls4)
		if len(tbls) != m.N() {
			t.Fatalf("%s: %d tables for %d nodes", k, len(tbls), m.N())
		}
		for id, got := range tbls {
			want := Build(k, m, alg, cls4, topology.NodeID(id))
			if got.Node() != want.Node() || got.Name() != want.Name() {
				t.Fatalf("%s: slot %d holds the %s table of node %d", k, id, got.Name(), got.Node())
			}
			for dst := 0; dst < m.N(); dst++ {
				if g, w := got.Lookup(topology.NodeID(dst), 0), want.Lookup(topology.NodeID(dst), 0); !g.Equal(w) {
					t.Fatalf("%s: node %d -> %d: %v, Build gives %v", k, id, dst, g, w)
				}
			}
		}
	}
}

// A table the organization cannot express panics on the goroutine that
// called BuildAll — where sweep and serve recover per point — not on a
// worker goroutine, where it would take the process down.
func TestBuildAllPanicsOnCaller(t *testing.T) {
	m := topology.NewMesh(4, 4)
	alg := parityAlg{
		xy: routing.NewDimOrder(m, cls4, nil),
		yx: routing.NewDimOrder(m, cls4, []int{1, 0}),
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sign-expressible") {
			t.Errorf("recovered %v, want the ES builder's refusal", r)
		}
	}()
	BuildAll(KindES, m, alg, cls4)
}
