package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPortNumbering(t *testing.T) {
	if PortPlus(0) != 1 || PortMinus(0) != 2 || PortPlus(1) != 3 || PortMinus(1) != 4 {
		t.Fatalf("2-D port numbering broken: +X=%d -X=%d +Y=%d -Y=%d",
			PortPlus(0), PortMinus(0), PortPlus(1), PortMinus(1))
	}
	for d := 0; d < 4; d++ {
		if PortDim(PortPlus(d)) != d || PortDim(PortMinus(d)) != d {
			t.Errorf("PortDim inconsistent for dim %d", d)
		}
		if PortSign(PortPlus(d)) != 1 || PortSign(PortMinus(d)) != -1 {
			t.Errorf("PortSign inconsistent for dim %d", d)
		}
		if Opposite(PortPlus(d)) != PortMinus(d) || Opposite(PortMinus(d)) != PortPlus(d) {
			t.Errorf("Opposite inconsistent for dim %d", d)
		}
	}
	if PortSign(PortLocal) != 0 || Opposite(PortLocal) != PortLocal {
		t.Error("local port sign/opposite wrong")
	}
}

func TestPortNames(t *testing.T) {
	m := NewMesh(4, 4)
	want := map[Port]string{0: "L", 1: "+X", 2: "-X", 3: "+Y", 4: "-Y"}
	for p, n := range want {
		if got := m.PortName(p); got != n {
			t.Errorf("PortName(%d) = %q, want %q", p, got, n)
		}
	}
}

func TestIDCoordRoundTrip(t *testing.T) {
	for _, m := range []*Mesh{NewMesh(16, 16), NewMesh(4, 5, 6), NewTorus(8, 8), NewMesh(2, 3)} {
		for id := NodeID(0); int(id) < m.N(); id++ {
			c := m.CoordOf(id)
			if got := m.ID(c); got != id {
				t.Fatalf("%v: round trip %d -> %v -> %d", m, id, c, got)
			}
			for d := 0; d < m.NumDims(); d++ {
				if m.CoordAxis(id, d) != c[d] {
					t.Fatalf("%v: CoordAxis(%d,%d)=%d want %d", m, id, d, m.CoordAxis(id, d), c[d])
				}
			}
		}
	}
}

func TestRowMajorConvention(t *testing.T) {
	m := NewMesh(16, 16)
	// id = x + 16*y, matching the paper's node labels in Fig. 8.
	if m.ID(Coord{3, 2}) != 35 {
		t.Fatalf("ID(3,2) = %d, want 35", m.ID(Coord{3, 2}))
	}
	if c := m.CoordOf(255); c[0] != 15 || c[1] != 15 {
		t.Fatalf("CoordOf(255) = %v, want [15 15]", c)
	}
}

func TestNeighborMesh(t *testing.T) {
	m := NewMesh(4, 4)
	// Interior node (1,1) = id 5.
	cases := []struct {
		p    Port
		want NodeID
	}{
		{PortPlus(0), 6}, {PortMinus(0), 4}, {PortPlus(1), 9}, {PortMinus(1), 1},
	}
	for _, c := range cases {
		got, ok := m.Neighbor(5, c.p)
		if !ok || got != c.want {
			t.Errorf("Neighbor(5,%s) = %d,%v want %d", m.PortName(c.p), got, ok, c.want)
		}
	}
	// Edges have no neighbor beyond the boundary.
	if _, ok := m.Neighbor(0, PortMinus(0)); ok {
		t.Error("node 0 should have no -X neighbor")
	}
	if _, ok := m.Neighbor(0, PortMinus(1)); ok {
		t.Error("node 0 should have no -Y neighbor")
	}
	if _, ok := m.Neighbor(15, PortPlus(0)); ok {
		t.Error("node 15 should have no +X neighbor")
	}
	if _, ok := m.Neighbor(5, PortLocal); ok {
		t.Error("local port should have no neighbor")
	}
}

func TestNeighborTorus(t *testing.T) {
	m := NewTorus(4, 4)
	got, ok := m.Neighbor(0, PortMinus(0))
	if !ok || got != 3 {
		t.Errorf("torus Neighbor(0,-X) = %d,%v want 3", got, ok)
	}
	got, ok = m.Neighbor(0, PortMinus(1))
	if !ok || got != 12 {
		t.Errorf("torus Neighbor(0,-Y) = %d,%v want 12", got, ok)
	}
	got, ok = m.Neighbor(15, PortPlus(0))
	if !ok || got != 12 {
		t.Errorf("torus Neighbor(15,+X) = %d,%v want 12", got, ok)
	}
}

func TestNeighborSymmetry(t *testing.T) {
	for _, m := range []*Mesh{NewMesh(5, 4), NewTorus(4, 6), NewMesh(3, 3, 3)} {
		for id := NodeID(0); int(id) < m.N(); id++ {
			for p := Port(1); int(p) < m.NumPorts(); p++ {
				nb, ok := m.Neighbor(id, p)
				if !ok {
					continue
				}
				back, ok2 := m.Neighbor(nb, Opposite(p))
				if !ok2 || back != id {
					t.Fatalf("%v: neighbor symmetry broken at %d port %s", m, id, m.PortName(p))
				}
			}
		}
	}
}

func TestOffsetSignMesh(t *testing.T) {
	m := NewMesh(16, 16)
	a, b := m.ID(Coord{3, 7}), m.ID(Coord{10, 7})
	if s := m.OffsetSign(a, b, 0); s != 1 {
		t.Errorf("X sign = %d want 1", s)
	}
	if s := m.OffsetSign(a, b, 1); s != 0 {
		t.Errorf("Y sign = %d want 0", s)
	}
	if s := m.OffsetSign(b, a, 0); s != -1 {
		t.Errorf("reverse X sign = %d want -1", s)
	}
}

func TestOffsetSignTorus(t *testing.T) {
	m := NewTorus(8, 8)
	// From x=1 to x=7: direct +6, wrap -2 => negative is shorter.
	if s := m.OffsetSign(m.ID(Coord{1, 0}), m.ID(Coord{7, 0}), 0); s != -1 {
		t.Errorf("wrap sign = %d want -1", s)
	}
	// From x=0 to x=4: exactly half way; ties resolve positive.
	if s := m.OffsetSign(m.ID(Coord{0, 0}), m.ID(Coord{4, 0}), 0); s != 1 {
		t.Errorf("tie sign = %d want +1", s)
	}
	// From x=6 to x=0: direct -6, wrap +2 => positive.
	if s := m.OffsetSign(m.ID(Coord{6, 0}), m.ID(Coord{0, 0}), 0); s != 1 {
		t.Errorf("wrap-positive sign = %d want +1", s)
	}
}

// SignIndex packs exactly the OffsetSign digits and SignAt unpacks them.
func TestSignIndex(t *testing.T) {
	for _, m := range []*Mesh{NewMesh(5, 4), NewTorus(6, 2), NewMesh(3, 2, 4), NewTorus(3, 4, 5), NewTorus(7)} {
		for cur := NodeID(0); int(cur) < m.N(); cur++ {
			for dst := NodeID(0); int(dst) < m.N(); dst++ {
				idx := m.SignIndex(cur, dst)
				for d := 0; d < m.NumDims(); d++ {
					if got, want := SignAt(idx, d), m.OffsetSign(cur, dst, d); got != want {
						t.Fatalf("%v %d->%d dim %d: SignAt %d, OffsetSign %d", m, cur, dst, d, got, want)
					}
				}
			}
		}
	}
}

// Walking one hop in the direction of OffsetSign must strictly reduce
// distance: the invariant minimal adaptive routing depends on.
func TestOffsetSignReducesDistance(t *testing.T) {
	for _, m := range []*Mesh{NewMesh(16, 16), NewTorus(8, 8), NewMesh(4, 4, 4), NewTorus(5, 5)} {
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 2000; trial++ {
			a := NodeID(rng.Intn(m.N()))
			b := NodeID(rng.Intn(m.N()))
			if a == b {
				continue
			}
			for d := 0; d < m.NumDims(); d++ {
				s := m.OffsetSign(a, b, d)
				if s == 0 {
					continue
				}
				p := PortPlus(d)
				if s < 0 {
					p = PortMinus(d)
				}
				nb, ok := m.Neighbor(a, p)
				if !ok {
					t.Fatalf("%v: OffsetSign points off the edge at %d->%d dim %d", m, a, b, d)
				}
				if m.Distance(nb, b) != m.Distance(a, b)-1 {
					t.Fatalf("%v: hop along sign does not reduce distance (%d->%d dim %d)", m, a, b, d)
				}
			}
		}
	}
}

func TestDistance(t *testing.T) {
	m := NewMesh(16, 16)
	if d := m.Distance(m.ID(Coord{0, 0}), m.ID(Coord{15, 15})); d != 30 {
		t.Errorf("corner distance = %d want 30", d)
	}
	tor := NewTorus(16, 16)
	if d := tor.Distance(tor.ID(Coord{0, 0}), tor.ID(Coord{15, 15})); d != 2 {
		t.Errorf("torus corner distance = %d want 2", d)
	}
}

func TestBisectionAndSaturation(t *testing.T) {
	m := NewMesh(16, 16)
	if bc := m.BisectionChannels(); bc != 32 {
		t.Errorf("mesh bisection channels = %d want 32", bc)
	}
	if r := m.SaturationInjectionRate(); r != 0.25 {
		t.Errorf("mesh saturation rate = %v want 0.25", r)
	}
	tor := NewTorus(16, 16)
	if bc := tor.BisectionChannels(); bc != 64 {
		t.Errorf("torus bisection channels = %d want 64", bc)
	}
}

func TestString(t *testing.T) {
	if s := NewMesh(16, 16).String(); s != "mesh(16x16)" {
		t.Errorf("String = %q", s)
	}
	if s := NewTorus(8, 8, 8).String(); s != "torus(8x8x8)" {
		t.Errorf("String = %q", s)
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewMesh() },
		func() { NewMesh(1, 4) },
		func() { NewMesh(16, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: ID and CoordOf are mutual inverses for random coordinates.
func TestQuickIDRoundTrip(t *testing.T) {
	m := NewMesh(7, 11, 5)
	f := func(x, y, z uint16) bool {
		c := Coord{int(x) % 7, int(y) % 11, int(z) % 5}
		id := m.ID(c)
		back := m.CoordOf(id)
		return back[0] == c[0] && back[1] == c[1] && back[2] == c[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distance is a metric (symmetric, triangle inequality) on a
// torus, where wrap makes it less obvious.
func TestQuickDistanceMetric(t *testing.T) {
	m := NewTorus(9, 6)
	f := func(a8, b8, c8 uint16) bool {
		a := NodeID(int(a8) % m.N())
		b := NodeID(int(b8) % m.N())
		c := NodeID(int(c8) % m.N())
		dab, dba := m.Distance(a, b), m.Distance(b, a)
		if dab != dba {
			return false
		}
		return m.Distance(a, c) <= dab+m.Distance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
