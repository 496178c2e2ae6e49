package routing

import (
	"math/rand"
	"testing"

	"lapses/internal/flow"
	"lapses/internal/topology"
)

var cls4 = Class{NumVCs: 4, EscapeVCs: 1}

func TestClassMasks(t *testing.T) {
	c := Class{NumVCs: 4, EscapeVCs: 1}
	if c.AdaptiveMask() != 0b1110 {
		t.Errorf("AdaptiveMask = %b", c.AdaptiveMask())
	}
	if c.EscapeMask() != 0b0001 {
		t.Errorf("EscapeMask = %b", c.EscapeMask())
	}
	c2 := Class{NumVCs: 4, EscapeVCs: 2}
	if c2.EscapeLowMask() != 0b0001 || c2.EscapeHighMask() != 0b0010 {
		t.Errorf("dateline masks = %b / %b", c2.EscapeLowMask(), c2.EscapeHighMask())
	}
}

func TestXYBasics(t *testing.T) {
	m := topology.NewMesh(16, 16)
	xy := NewDimOrder(m, cls4, nil)
	if xy.Name() != "xy" || !xy.Deterministic() {
		t.Fatalf("xy identity wrong: %s %v", xy.Name(), xy.Deterministic())
	}
	src := m.ID(topology.Coord{3, 3})
	dst := m.ID(topology.Coord{7, 9})
	rs := xy.Route(src, dst, 0)
	if rs.Len() != 1 || rs.At(0).Port != topology.PortPlus(0) {
		t.Fatalf("XY should go +X first: %v", rs)
	}
	// Once X is resolved, go Y.
	mid := m.ID(topology.Coord{7, 3})
	rs = xy.Route(mid, dst, 0)
	if rs.Len() != 1 || rs.At(0).Port != topology.PortPlus(1) {
		t.Fatalf("XY should go +Y second: %v", rs)
	}
	// At destination, eject.
	rs = xy.Route(dst, dst, 0)
	if rs.Len() != 1 || rs.At(0).Port != topology.PortLocal {
		t.Fatalf("XY should eject at destination: %v", rs)
	}
}

func TestYXOrder(t *testing.T) {
	m := topology.NewMesh(16, 16)
	yx := NewDimOrder(m, cls4, []int{1, 0})
	if yx.Name() != "yx" {
		t.Fatalf("name = %s", yx.Name())
	}
	src := m.ID(topology.Coord{3, 3})
	dst := m.ID(topology.Coord{7, 9})
	rs := yx.Route(src, dst, 0)
	if rs.Len() != 1 || rs.At(0).Port != topology.PortPlus(1) {
		t.Fatalf("YX should go +Y first: %v", rs)
	}
}

func TestDimOrderPanicsOnBadOrder(t *testing.T) {
	m := topology.NewMesh(4, 4)
	for _, ord := range [][]int{{0}, {0, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("order %v should panic", ord)
				}
			}()
			NewDimOrder(m, cls4, ord)
		}()
	}
}

func TestDuatoCandidates(t *testing.T) {
	m := topology.NewMesh(16, 16)
	du := NewDuato(m, cls4)
	if du.Deterministic() {
		t.Fatal("duato should not be deterministic")
	}
	src := m.ID(topology.Coord{3, 3})
	dst := m.ID(topology.Coord{7, 9})
	rs := du.Route(src, dst, 0)
	if rs.Len() != 2 {
		t.Fatalf("expected 2 candidates, got %v", rs)
	}
	x, y := rs.At(0), rs.At(1)
	if x.Port != topology.PortPlus(0) || y.Port != topology.PortPlus(1) {
		t.Fatalf("candidate ports wrong: %v", rs)
	}
	if x.Adaptive != 0b1110 || y.Adaptive != 0b1110 {
		t.Errorf("adaptive masks wrong: %v", rs)
	}
	// Escape class rides only on the dimension-order (X) port.
	if x.Escape != 0b0001 || y.Escape != 0 {
		t.Errorf("escape masks wrong: %v", rs)
	}
	// Aligned in X: single candidate carrying the escape class.
	mid := m.ID(topology.Coord{7, 3})
	rs = du.Route(mid, dst, 0)
	if rs.Len() != 1 || rs.At(0).Port != topology.PortPlus(1) || rs.At(0).Escape != 0b0001 {
		t.Fatalf("aligned route wrong: %v", rs)
	}
}

func TestDuatoRequiresEscape(t *testing.T) {
	m := topology.NewMesh(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic with no escape VCs")
		}
	}()
	NewDuato(m, Class{NumVCs: 4, EscapeVCs: 0})
}

func TestDuatoTorusRequiresTwoEscape(t *testing.T) {
	m := topology.NewTorus(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic with one escape VC on torus")
		}
	}()
	NewDuato(m, Class{NumVCs: 4, EscapeVCs: 1})
}

func TestNorthLastMatchesPaperFig7(t *testing.T) {
	// Fig. 7: 3x3 mesh, router at (1,1), North-Last programming.
	m := topology.NewMesh(3, 3)
	nl := NewNorthLast(m, cls4)
	at := m.ID(topology.Coord{1, 1})
	// Paper's table, translated to coordinates and our port names.
	cases := []struct {
		dst   topology.Coord
		ports []topology.Port
	}{
		{topology.Coord{0, 0}, []topology.Port{topology.PortMinus(0), topology.PortMinus(1)}}, // W,S
		{topology.Coord{1, 0}, []topology.Port{topology.PortMinus(1)}},                        // S
		{topology.Coord{2, 0}, []topology.Port{topology.PortPlus(0), topology.PortMinus(1)}},  // E,S
		{topology.Coord{0, 1}, []topology.Port{topology.PortMinus(0)}},                        // W
		{topology.Coord{1, 1}, []topology.Port{topology.PortLocal}},                           // 0
		{topology.Coord{2, 1}, []topology.Port{topology.PortPlus(0)}},                         // E
		{topology.Coord{0, 2}, []topology.Port{topology.PortMinus(0)}},                        // W only (NL drops N)
		{topology.Coord{1, 2}, []topology.Port{topology.PortPlus(1)}},                         // N
		{topology.Coord{2, 2}, []topology.Port{topology.PortPlus(0)}},                         // E only (NL drops N)
	}
	for _, c := range cases {
		rs := nl.Route(at, m.ID(c.dst), 0)
		got := rs.Ports()
		if len(got) != len(c.ports) {
			t.Errorf("dst %v: ports %v want %v", c.dst, got, c.ports)
			continue
		}
		want := map[topology.Port]bool{}
		for _, p := range c.ports {
			want[p] = true
		}
		for _, p := range got {
			if !want[p] {
				t.Errorf("dst %v: unexpected port %s", c.dst, m.PortName(p))
			}
		}
	}
}

func TestWestFirst(t *testing.T) {
	m := topology.NewMesh(8, 8)
	wf := NewWestFirst(m, cls4)
	// Needs to go west: only -X allowed.
	rs := wf.Route(m.ID(topology.Coord{4, 4}), m.ID(topology.Coord{1, 6}), 0)
	if rs.Len() != 1 || rs.At(0).Port != topology.PortMinus(0) {
		t.Fatalf("west-first should force -X: %v", rs)
	}
	// No west component: fully adaptive east/north.
	rs = wf.Route(m.ID(topology.Coord{4, 4}), m.ID(topology.Coord{6, 6}), 0)
	if rs.Len() != 2 {
		t.Fatalf("west-first should be adaptive eastbound: %v", rs)
	}
}

func TestNegativeFirst(t *testing.T) {
	m := topology.NewMesh(8, 8)
	nf := NewNegativeFirst(m, cls4)
	// Mixed signs: only the negative direction.
	rs := nf.Route(m.ID(topology.Coord{4, 4}), m.ID(topology.Coord{6, 2}), 0)
	if rs.Len() != 1 || rs.At(0).Port != topology.PortMinus(1) {
		t.Fatalf("negative-first should force -Y: %v", rs)
	}
	// Both negative: both candidates.
	rs = nf.Route(m.ID(topology.Coord{4, 4}), m.ID(topology.Coord{2, 2}), 0)
	if rs.Len() != 2 {
		t.Fatalf("negative-first should allow both negatives: %v", rs)
	}
	// Both positive: both candidates.
	rs = nf.Route(m.ID(topology.Coord{4, 4}), m.ID(topology.Coord{6, 6}), 0)
	if rs.Len() != 2 {
		t.Fatalf("negative-first should be adaptive positive: %v", rs)
	}
}

func TestAllAlgorithmsMinimal(t *testing.T) {
	m := topology.NewMesh(8, 8)
	algs := []Algorithm{
		NewDimOrder(m, cls4, nil),
		NewDimOrder(m, cls4, []int{1, 0}),
		NewDuato(m, cls4),
		NewNorthLast(m, cls4),
		NewWestFirst(m, cls4),
		NewNegativeFirst(m, cls4),
	}
	for _, a := range algs {
		if err := ValidateMinimal(m, a); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

func TestMinimal3D(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	for _, a := range []Algorithm{
		NewDimOrder(m, cls4, nil),
		NewDuato(m, cls4),
	} {
		if err := ValidateMinimal(m, a); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

func TestMinimalTorus(t *testing.T) {
	m := topology.NewTorus(6, 6)
	cls := Class{NumVCs: 4, EscapeVCs: 2}
	for _, a := range []Algorithm{
		NewDimOrder(m, cls, nil),
		NewDuato(m, cls),
	} {
		if err := ValidateMinimal(m, a); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

func TestEscapeAcyclicMeshXY(t *testing.T) {
	m := topology.NewMesh(6, 6)
	deps := EscapeDependencyGraph(m, NewDimOrder(m, cls4, nil), Class{NumVCs: 4, EscapeVCs: 0})
	if ok, cyc := Acyclic(deps); !ok {
		t.Fatalf("XY dependency graph has a cycle: %v", cyc)
	}
}

func TestEscapeAcyclicDuato(t *testing.T) {
	m := topology.NewMesh(6, 6)
	deps := EscapeDependencyGraph(m, NewDuato(m, cls4), cls4)
	if ok, cyc := Acyclic(deps); !ok {
		t.Fatalf("Duato escape graph has a cycle: %v", cyc)
	}
}

func TestEscapeAcyclicTurnModels(t *testing.T) {
	m := topology.NewMesh(5, 5)
	for _, a := range []Algorithm{NewNorthLast(m, cls4), NewWestFirst(m, cls4), NewNegativeFirst(m, cls4)} {
		deps := EscapeDependencyGraph(m, a, Class{NumVCs: 4, EscapeVCs: 0})
		if ok, cyc := Acyclic(deps); !ok {
			t.Errorf("%s dependency graph has a cycle: %v", a.Name(), cyc)
		}
	}
}

func TestEscapeAcyclicDuatoTorus(t *testing.T) {
	m := topology.NewTorus(4, 4)
	cls := Class{NumVCs: 4, EscapeVCs: 2}
	deps := EscapeDependencyGraph(m, NewDuato(m, cls), cls)
	if ok, cyc := Acyclic(deps); !ok {
		t.Fatalf("torus Duato escape graph has a cycle: %v", cyc)
	}
}

// YX escape used as a negative control: the checker must detect the cycle
// created by mixing XY and YX messages on the same VC.
func TestAcyclicDetectsMixedOrderCycle(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cls := Class{NumVCs: 1, EscapeVCs: 0}
	xy := NewDimOrder(m, cls, nil)
	yx := NewDimOrder(m, cls, []int{1, 0})
	// Merge both dependency graphs: messages of both kinds share channels.
	deps := EscapeDependencyGraph(m, xy, cls)
	for k, v := range EscapeDependencyGraph(m, yx, cls) {
		deps[k] = append(deps[k], v...)
	}
	if ok, _ := Acyclic(deps); ok {
		t.Fatal("mixing XY and YX on one VC must create a cycle")
	}
}

// Property: Duato's candidate set always contains the XY escape hop, so a
// message can always fall back to the escape network.
func TestDuatoContainsEscapePath(t *testing.T) {
	m := topology.NewMesh(8, 8)
	du := NewDuato(m, cls4)
	xy := NewDimOrder(m, cls4, nil)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		cur := topology.NodeID(rng.Intn(m.N()))
		dst := topology.NodeID(rng.Intn(m.N()))
		if cur == dst {
			continue // ejection needs no escape class
		}
		want := xy.Route(cur, dst, 0).At(0).Port
		rs := du.Route(cur, dst, 0)
		found := false
		for j := 0; j < rs.Len(); j++ {
			c := rs.At(j)
			if c.Port == want && c.Escape != 0 {
				found = true
			}
			if c.Port != want && c.Escape != 0 {
				t.Fatalf("escape class on non-XY port at %d->%d: %v", cur, dst, rs)
			}
		}
		if !found {
			t.Fatalf("XY escape hop missing at %d->%d: %v", cur, dst, rs)
		}
	}
}

// Property: turn-model candidate sets are always subsets of Duato's fully
// adaptive set (they only restrict turns, never add non-minimal options).
func TestTurnModelsSubsetOfFullyAdaptive(t *testing.T) {
	m := topology.NewMesh(8, 8)
	du := NewDuato(m, cls4)
	models := []Algorithm{NewNorthLast(m, cls4), NewWestFirst(m, cls4), NewNegativeFirst(m, cls4)}
	for cur := topology.NodeID(0); int(cur) < m.N(); cur++ {
		for _, dst := range []topology.NodeID{0, 7, 32, 63, cur} {
			full := map[topology.Port]bool{}
			frs := du.Route(cur, dst, 0)
			for i := 0; i < frs.Len(); i++ {
				full[frs.At(i).Port] = true
			}
			for _, alg := range models {
				rs := alg.Route(cur, dst, 0)
				for i := 0; i < rs.Len(); i++ {
					if !full[rs.At(i).Port] {
						t.Fatalf("%s at %d->%d uses port outside adaptive set", alg.Name(), cur, dst)
					}
				}
			}
		}
	}
}

func TestEjectUsesAllVCs(t *testing.T) {
	m := topology.NewMesh(4, 4)
	du := NewDuato(m, cls4)
	rs := du.Route(5, 5, 0)
	if rs.At(0).All() != flow.MaskAll(4) {
		t.Errorf("eject mask = %b", rs.At(0).All())
	}
}
