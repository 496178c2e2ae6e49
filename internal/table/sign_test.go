package table

import (
	"testing"

	"lapses/internal/fault"
	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/topology"
)

var signAlgNames = []string{"xy", "yx", "duato", "north-last", "west-first", "negative-first"}

// signAlg builds the named healthy algorithm on m with cls, or returns nil
// where core.Validate rejects it: yx outside 2-D, a turn model outside
// the 2-D mesh, Duato short of escape VCs.
func signAlg(name string, m *topology.Mesh, cls routing.Class) routing.Algorithm {
	mesh2D := m.NumDims() == 2 && !m.Wrap()
	switch name {
	case "xy":
		return routing.NewDimOrder(m, cls, nil)
	case "yx":
		if m.NumDims() == 2 {
			return routing.NewDimOrder(m, cls, []int{1, 0})
		}
	case "duato":
		if cls.EscapeVCs >= 1 && (!m.Wrap() || cls.EscapeVCs >= 2) {
			return routing.NewDuato(m, cls)
		}
	case "north-last":
		if mesh2D {
			return routing.NewNorthLast(m, cls)
		}
	case "west-first":
		if mesh2D {
			return routing.NewWestFirst(m, cls)
		}
	case "negative-first":
		if mesh2D {
			return routing.NewNegativeFirst(m, cls)
		}
	}
	return nil
}

// signKinds lists the organizations core.Validate accepts for the named
// algorithm on m: meta tables on a 2-D mesh, interval tables where each
// port's destinations are one run of row-major labels (yx in 2-D, xy in
// 1-D, meshes only).
func signKinds(name string, m *topology.Mesh) []Kind {
	kinds := []Kind{KindFull, KindES}
	if m.NumDims() == 2 && !m.Wrap() {
		kinds = append(kinds, KindMetaRow, KindMetaBlock)
	}
	if !m.Wrap() && (name == "yx" && m.NumDims() == 2 || name == "xy" && m.NumDims() == 1) {
		kinds = append(kinds, KindInterval)
	}
	return kinds
}

// verifySigned runs Verify over every algorithm and organization accepted
// on m and returns how many combinations it checked.
func verifySigned(t *testing.T, m *topology.Mesh, cls routing.Class) int {
	t.Helper()
	checked := 0
	for _, name := range signAlgNames {
		alg := signAlg(name, m, cls)
		if alg == nil {
			continue
		}
		for _, k := range signKinds(name, m) {
			if err := Verify(k, m, alg, cls); err != nil {
				t.Fatal(err)
			}
			checked++
		}
	}
	return checked
}

// TestSignTablesEqualRoute is lapses-tables -verify's static check: every
// organization x algorithm x {1,2,3}-D x {mesh, torus} combination
// answers every lookup and look-ahead lookup exactly as the algorithm
// does, at every router, destination and dateline state.
func TestSignTablesEqualRoute(t *testing.T) {
	checked := 0
	for _, dims := range [][]int{{7}, {6, 5}, {4, 3, 2}} {
		for _, wrap := range []bool{false, true} {
			m := topology.New(wrap, dims...)
			cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
			if wrap {
				cls.EscapeVCs = 2
			}
			checked += verifySigned(t, m, cls)
		}
	}
	if checked != 48 {
		t.Errorf("checked %d combinations, lapses-tables -verify checks 48", checked)
	}
}

// FuzzSignTables draws a topology (radices 2-9, 1-3 dimensions, mesh or
// torus) and a VC class, and holds every table of every algorithm defined
// there to the algorithm.
func FuzzSignTables(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(4), uint8(0), true, uint8(4), uint8(2))  // 2x6 torus: a radix-2 dimension never realizes "-"
	f.Add(uint8(2), uint8(1), uint8(0), uint8(2), true, uint8(6), uint8(2))  // 3x2x4 torus
	f.Add(uint8(1), uint8(2), uint8(3), uint8(0), false, uint8(4), uint8(1)) // 4x5 mesh
	f.Add(uint8(0), uint8(7), uint8(0), uint8(0), false, uint8(1), uint8(0)) // 9-node line, one VC
	f.Fuzz(func(t *testing.T, nd, r0, r1, r2 uint8, wrap bool, vcs, esc uint8) {
		dims := []int{2 + int(r0)%8, 2 + int(r1)%8, 2 + int(r2)%8}[:1+int(nd)%3]
		cls := routing.Class{NumVCs: 1 + int(vcs)%8}
		cls.EscapeVCs = int(esc) % (cls.NumVCs + 1)
		verifySigned(t, topology.New(wrap, dims...), cls)
	})
}

// countingAlg counts how often Program evaluates the sign-routed algorithm
// it wraps.
type countingAlg struct {
	routing.SignRouted
	routes, signs int
}

func (a *countingAlg) Route(cur, dst topology.NodeID, dl uint8) flow.RouteSet {
	a.routes++
	return a.SignRouted.Route(cur, dst, dl)
}

func (a *countingAlg) RouteSigns(cur topology.NodeID, signs int, dl uint8) flow.RouteSet {
	a.signs++
	return a.SignRouted.RouteSigns(cur, signs, dl)
}

// TestColdBuildEvaluatesSignClasses pins the cost of a cold structure: on
// a 32x32 mesh, programming the routes of an es, full or interval table
// evaluates the algorithm once per sign class for the whole structure,
// never once per router or destination; on a torus, where Lookup evaluates
// the algorithm, programming evaluates nothing.
func TestColdBuildEvaluatesSignClasses(t *testing.T) {
	mesh, torus := topology.NewMesh(32, 32), topology.NewTorus(32, 32)
	meshCls, torusCls := routing.Class{NumVCs: 4, EscapeVCs: 1}, routing.Class{NumVCs: 4, EscapeVCs: 2}
	cases := []struct {
		k     Kind
		m     *topology.Mesh
		alg   routing.Algorithm
		cls   routing.Class
		signs int
	}{
		{KindES, mesh, routing.NewDuato(mesh, meshCls), meshCls, 9},
		{KindFull, mesh, routing.NewDuato(mesh, meshCls), meshCls, 9},
		{KindInterval, mesh, routing.NewDimOrder(mesh, meshCls, []int{1, 0}), meshCls, 9},
		{KindES, torus, routing.NewDuato(torus, torusCls), torusCls, 0},
		{KindFull, torus, routing.NewDuato(torus, torusCls), torusCls, 0},
	}
	for _, c := range cases {
		alg := &countingAlg{SignRouted: c.alg.(routing.SignRouted)}
		Program(c.k, c.m, alg, c.cls)
		if alg.routes != 0 {
			t.Errorf("%s on %s: %d Route calls, want 0", c.k, c.m, alg.routes)
		}
		if alg.signs > c.signs {
			t.Errorf("%s on %s: %d RouteSigns calls, at most %d", c.k, c.m, alg.signs, c.signs)
		}
	}
}

// TestFootprintBudget holds a structure's storage to the economical-storage
// row, whatever organization it models: on 32x32, mesh and torus, every
// kind's routes hold at most 3^n route sets for all of its routers, and
// none when the function is position-dependent (the fault-aware algorithms
// already hold their next-hop arrays) — so a per-router or per-destination
// table cannot come back unnoticed.
func TestFootprintBudget(t *testing.T) {
	mesh, torus := topology.NewMesh(32, 32), topology.NewTorus(32, 32)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 2}
	plan, err := fault.Random(mesh, 8, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := routing.NewFaultDuato(mesh, cls, plan)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		k    Kind
		m    *topology.Mesh
		alg  routing.Algorithm
		most int
	}
	cases := []tc{
		{KindFull, torus, routing.NewDuato(torus, cls), 9},
		{KindES, torus, routing.NewDuato(torus, cls), 9},
		{KindES, mesh, faulted, 0},
		{KindFull, mesh, faulted, 0},
	}
	for _, k := range Kinds {
		alg := routing.NewDuato(mesh, cls)
		if k == KindInterval {
			alg = routing.NewDimOrder(mesh, cls, []int{1, 0})
		}
		cases = append(cases, tc{k, mesh, alg, 9})
	}
	for _, c := range cases {
		if n := len(Program(c.k, c.m, c.alg, cls).row); n > c.most {
			t.Errorf("%s, %s on %s: %d route sets, at most %d", c.k, c.alg.Name(), c.m, n, c.most)
		}
	}
}
