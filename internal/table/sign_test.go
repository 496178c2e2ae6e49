package table

import (
	"sync/atomic"
	"testing"

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

// countingAlg counts how often a table builder evaluates the sign-routed
// algorithm it wraps.
type countingAlg struct {
	routing.SignRouted
	routes, signs atomic.Int64
}

func (a *countingAlg) Route(cur, dst topology.NodeID, dl uint8) flow.RouteSet {
	a.routes.Add(1)
	return a.SignRouted.Route(cur, dst, dl)
}

func (a *countingAlg) RouteSigns(cur topology.NodeID, signs int, dl uint8) flow.RouteSet {
	a.signs.Add(1)
	return a.SignRouted.RouteSigns(cur, signs, dl)
}

// TestColdBuildEvaluatesSignClasses pins the cost of a cold structure: on
// 32x32, programming every router's es, full or interval table evaluates
// the algorithm once per sign class and dateline state, never once per
// destination.
func TestColdBuildEvaluatesSignClasses(t *testing.T) {
	mesh, torus := topology.NewMesh(32, 32), topology.NewTorus(32, 32)
	meshCls, torusCls := routing.Class{NumVCs: 4, EscapeVCs: 1}, routing.Class{NumVCs: 4, EscapeVCs: 2}
	cases := []struct {
		k      Kind
		m      *topology.Mesh
		alg    routing.Algorithm
		cls    routing.Class
		states int
	}{
		{KindES, mesh, routing.NewDuato(mesh, meshCls), meshCls, 1},
		{KindFull, mesh, routing.NewDuato(mesh, meshCls), meshCls, 1},
		{KindInterval, mesh, routing.NewDimOrder(mesh, meshCls, []int{1, 0}), meshCls, 1},
		{KindES, torus, routing.NewDuato(torus, torusCls), torusCls, 4},
		{KindFull, torus, routing.NewDuato(torus, torusCls), torusCls, 4},
	}
	for _, c := range cases {
		alg := &countingAlg{SignRouted: c.alg.(routing.SignRouted)}
		BuildAll(c.k, c.m, alg, c.cls)
		if n := alg.routes.Load(); n != 0 {
			t.Errorf("%s on %s: %d Route calls, want 0", c.k, c.m, n)
		}
		if n, most := alg.signs.Load(), int64(c.m.N()*ESEntryCount(c.m.NumDims())*c.states); n > most {
			t.Errorf("%s on %s: %d RouteSigns calls, at most %d (3^n x %d states per router)", c.k, c.m, n, most, c.states)
		}
	}
}
