package fault

import (
	"testing"

	"lapses/internal/topology"
)

func TestExplicitPlanCanonical(t *testing.T) {
	m := topology.NewMesh(4, 4)
	// Same link named from both ends must canonicalize identically.
	a, err := New(m, []Link{{Node: 5, Port: topology.PortPlus(0)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(m, []Link{{Node: 6, Port: topology.PortMinus(0)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ for the same link: %q vs %q", a.Key(), b.Key())
	}
	if !a.LinkDead(5, topology.PortPlus(0)) || !a.LinkDead(6, topology.PortMinus(0)) {
		t.Fatal("link failure is not bidirectional")
	}
	if a.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d, want 1", a.NumLinks())
	}
	if !a.Connected(m) {
		t.Fatal("single link failure must not disconnect a 4x4 mesh")
	}
}

func TestDeadRouterKillsItsLinks(t *testing.T) {
	m := topology.NewMesh(4, 4)
	r := m.ID(topology.Coord{1, 1})
	p, err := New(m, nil, []topology.NodeID{r})
	if err != nil {
		t.Fatal(err)
	}
	if !p.NodeDead(r) {
		t.Fatal("router not dead")
	}
	for pt := 1; pt < m.NumPorts(); pt++ {
		if nb, ok := m.Neighbor(r, topology.Port(pt)); ok {
			if !p.LinkDead(r, topology.Port(pt)) {
				t.Fatalf("port %d of dead router still live", pt)
			}
			if !p.LinkDead(nb, topology.Opposite(topology.Port(pt))) {
				t.Fatalf("reverse direction into dead router still live")
			}
		}
	}
	// Router-implied links are not listed as separate link failures.
	if p.NumLinks() != 0 {
		t.Fatalf("NumLinks = %d, want 0 (implied by router)", p.NumLinks())
	}
	if !p.Connected(m) {
		t.Fatal("one dead interior router must not disconnect the live 4x4 mesh")
	}
}

func TestRandomPlansStayConnected(t *testing.T) {
	for _, m := range []*topology.Mesh{topology.NewMesh(8, 8), topology.NewTorus(6, 6)} {
		for seed := int64(1); seed <= 20; seed++ {
			p, err := Random(m, 6, 1, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m, seed, err)
			}
			if !p.Connected(m) {
				t.Fatalf("%s seed %d: generated plan disconnects the network", m, seed)
			}
			if p.NumRouters() != 1 {
				t.Fatalf("%s seed %d: NumRouters = %d", m, seed, p.NumRouters())
			}
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	m := topology.NewMesh(8, 8)
	a, err := Random(m, 4, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(m, 4, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("same seed produced different plans: %q vs %q", a.Key(), b.Key())
	}
	c, err := Random(m, 4, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == c.Key() {
		t.Fatal("different seeds produced identical plans (suspicious)")
	}
}

func TestParseSpec(t *testing.T) {
	m := topology.NewMesh(4, 4)
	s, err := ParseSchedule(m, "5-6, 9-13 ,r0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Epochs() != 1 {
		t.Fatalf("untimed spec has %d epochs, want 1", s.Epochs())
	}
	p := s.Plan(0)
	if p.NumLinks() != 2 || p.NumRouters() != 1 {
		t.Fatalf("parsed %d links %d routers, want 2 and 1", p.NumLinks(), p.NumRouters())
	}
	if !p.LinkDead(9, topology.PortPlus(1)) {
		t.Fatal("9-13 (a +Y link) not dead")
	}
	if _, err := ParseSchedule(m, "0-5"); err == nil {
		t.Fatal("non-adjacent link accepted")
	}
	if _, err := ParseSchedule(m, "0+1"); err == nil {
		t.Fatal("malformed item accepted")
	}
}

func TestNilAndEmptyPlans(t *testing.T) {
	m := topology.NewMesh(4, 4)
	var p *Plan
	if !p.Empty() || p.Key() != "" || p.LinkDead(0, 1) || p.NodeDead(0) {
		t.Fatal("nil plan must behave as healthy")
	}
	e, err := New(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Empty() || e.Key() != "" {
		t.Fatal("empty plan must have empty key")
	}
}

func TestFitsRequiresExactShape(t *testing.T) {
	p, err := Random(topology.NewMesh(8, 8), 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Fits(topology.NewMesh(8, 8)) {
		t.Fatal("plan rejected by its own topology")
	}
	// Same node and port counts, different shape: the plan's (node, port)
	// indices would designate different physical links.
	for _, m := range []*topology.Mesh{topology.NewMesh(4, 16), topology.NewTorus(8, 8), topology.NewMesh(16, 4)} {
		if p.Fits(m) {
			t.Fatalf("8x8 mesh plan accepted by %s", m)
		}
	}
}

func TestDisconnectionRejected(t *testing.T) {
	m := topology.NewMesh(2, 2)
	// Cutting both links of node 0 isolates it.
	p, err := New(m, []Link{
		{Node: 0, Port: topology.PortPlus(0)},
		{Node: 0, Port: topology.PortPlus(1)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Connected(m) {
		t.Fatal("isolating a node must report disconnected")
	}
}
