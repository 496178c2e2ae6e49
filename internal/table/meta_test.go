package table

import (
	"testing"

	"lapses/internal/routing"
	"lapses/internal/topology"
)

func TestMetaRowIsYX(t *testing.T) {
	m := topology.NewMesh(16, 16)
	alg := routing.NewDuato(m, cls4)
	yx := routing.NewDimOrder(m, cls4, []int{1, 0})
	for _, node := range []topology.NodeID{0, 17, 100, 255} {
		meta := NewMeta(m, alg, cls4, MapRow)
		for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
			got := meta.Route(node, dst, 0)
			want := yx.Route(node, dst, 0)
			if got.Len() != 1 || got.At(0).Port != want.At(0).Port {
				t.Fatalf("meta-row at %d dst %d: port %v want %v", node, dst, got.Ports(), want.Ports())
			}
		}
	}
}

// The Fig. 8(b) pathology: inside an intermediate cluster, routing toward a
// remote cluster in line with it offers exactly one direction — adaptivity
// is lost until the message crosses into the destination cluster.
func TestMetaBlockLosesAdaptivityInIntermediateCluster(t *testing.T) {
	m := topology.NewMesh(16, 16)
	alg := routing.NewDuato(m, cls4)
	// Node (5,2) is in cluster 1 (blocks are 4x4). Destination (6,6) is
	// in cluster 5, directly south... i.e. +Y of cluster 1.
	node := m.ID(topology.Coord{5, 2})
	dst := m.ID(topology.Coord{6, 6})
	meta := NewMeta(m, alg, cls4, MapBlock)
	if meta.ClusterOf(node) != 1 || meta.ClusterOf(dst) != 5 {
		t.Fatalf("cluster assignment wrong: %d %d", meta.ClusterOf(node), meta.ClusterOf(dst))
	}
	rs := meta.Route(node, dst, 0)
	// Adaptive candidates must be only +Y; full-table would offer +X too.
	adaptivePorts := map[topology.Port]bool{}
	for i := 0; i < rs.Len(); i++ {
		if rs.At(i).Adaptive != 0 {
			adaptivePorts[rs.At(i).Port] = true
		}
	}
	if len(adaptivePorts) != 1 || !adaptivePorts[topology.PortPlus(1)] {
		t.Fatalf("expected single +Y adaptive candidate, got %v", rs)
	}
	if full := Program(KindFull, m, alg, cls4).Lookup(node, dst, 0); full.Len() != 2 {
		t.Fatalf("full table should offer 2 candidates here: %v", full)
	}
}

// From the source cluster diagonal to the destination cluster, the cluster
// table does allow both productive directions.
func TestMetaBlockAdaptiveAcrossDiagonal(t *testing.T) {
	m := topology.NewMesh(16, 16)
	alg := routing.NewDuato(m, cls4)
	node := m.ID(topology.Coord{1, 1}) // cluster 0
	dst := m.ID(topology.Coord{6, 6})  // cluster 5
	meta := NewMeta(m, alg, cls4, MapBlock)
	rs := meta.Route(node, dst, 0)
	adaptivePorts := map[topology.Port]bool{}
	for i := 0; i < rs.Len(); i++ {
		if rs.At(i).Adaptive != 0 {
			adaptivePorts[rs.At(i).Port] = true
		}
	}
	if !adaptivePorts[topology.PortPlus(0)] || !adaptivePorts[topology.PortPlus(1)] {
		t.Fatalf("expected +X and +Y adaptive candidates, got %v", rs)
	}
}

// Within the destination cluster, the sub-table gives full minimal
// adaptivity (it defers to the algorithm).
func TestMetaBlockIntraCluster(t *testing.T) {
	m := topology.NewMesh(16, 16)
	alg := routing.NewDuato(m, cls4)
	node := m.ID(topology.Coord{4, 4}) // cluster 5
	dst := m.ID(topology.Coord{6, 6})  // cluster 5
	meta := NewMeta(m, alg, cls4, MapBlock)
	if !meta.Route(node, dst, 0).Equal(alg.Route(node, dst, 0)) {
		t.Fatal("intra-cluster lookup should match the adaptive algorithm")
	}
}

// Every meta-table candidate must still be a minimal hop, and every lookup
// must offer at least one VC.
func TestMetaMinimal(t *testing.T) {
	m := topology.NewMesh(8, 8)
	alg := routing.NewDuato(m, cls4)
	for _, mapping := range []MetaMapping{MapRow, MapBlock} {
		for node := topology.NodeID(0); int(node) < m.N(); node++ {
			meta := NewMeta(m, alg, cls4, mapping)
			for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
				rs := meta.Route(node, dst, 0)
				if rs.Empty() {
					t.Fatalf("%s: empty candidates %d->%d", meta.Name(), node, dst)
				}
				for i := 0; i < rs.Len(); i++ {
					c := rs.At(i)
					if c.All() == 0 {
						t.Fatalf("%s: empty mask %d->%d", meta.Name(), node, dst)
					}
					if node == dst {
						if c.Port != topology.PortLocal {
							t.Fatalf("%s: no eject at %d", meta.Name(), node)
						}
						continue
					}
					nb, ok := m.Neighbor(node, c.Port)
					if !ok {
						t.Fatalf("%s: off-edge hop %d->%d", meta.Name(), node, dst)
					}
					if m.Distance(nb, dst) != m.Distance(node, dst)-1 {
						t.Fatalf("%s: non-minimal hop %d->%d via %s", meta.Name(), node, dst, m.PortName(c.Port))
					}
				}
			}
		}
	}
}

func TestMetaLabelsMatchFig8(t *testing.T) {
	m := topology.NewMesh(16, 16)
	alg := routing.NewDuato(m, cls4)
	row := NewMeta(m, alg, cls4, MapRow)
	// Fig. 8(a): rows are clusters; node 35 = (3,2) is row 2, sub 3.
	if row.ClusterOf(35) != 2 || row.Label(35) != 35 {
		t.Errorf("row mapping: cluster %d label %d", row.ClusterOf(35), row.Label(35))
	}
	blk := NewMeta(m, alg, cls4, MapBlock)
	// Fig. 8(b): (15,15) is in cluster 15 with label 255.
	id := m.ID(topology.Coord{15, 15})
	if blk.ClusterOf(id) != 15 || blk.Label(id) != 255 {
		t.Errorf("block mapping: cluster %d label %d", blk.ClusterOf(id), blk.Label(id))
	}
	// (0,0) is cluster 0 label 0; (4,0) is cluster 1 label 16.
	if blk.ClusterOf(0) != 0 || blk.Label(0) != 0 {
		t.Errorf("block mapping origin: cluster %d label %d", blk.ClusterOf(0), blk.Label(0))
	}
	id40 := m.ID(topology.Coord{4, 0})
	if blk.ClusterOf(id40) != 1 || blk.Label(id40) != 16 {
		t.Errorf("block mapping (4,0): cluster %d label %d", blk.ClusterOf(id40), blk.Label(id40))
	}
	if blk.DumpMapping() == "" {
		t.Error("empty mapping dump")
	}
}

func TestIntervalYX(t *testing.T) {
	m := topology.NewMesh(8, 8)
	yx := routing.NewDimOrder(m, cls4, []int{1, 0})
	iv := Program(KindInterval, m, yx, cls4)
	for _, node := range []topology.NodeID{0, 27, 63} {
		lo, hi, err := Intervals(m, yx, node)
		if err != nil {
			t.Fatal(err)
		}
		for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
			got := iv.Lookup(node, dst, 0)
			want := yx.Route(node, dst, 0)
			if got.At(0).Port != want.At(0).Port {
				t.Fatalf("interval at %d dst %d: %v want %v", node, dst, got.Ports(), want.Ports())
			}
			if p := got.At(0).Port; int(dst) < lo[p] || int(dst) > hi[p] {
				t.Fatalf("interval at %d: dst %d routed through %s, outside its labels %d..%d", node, dst, m.PortName(p), lo[p], hi[p])
			}
		}
		if lo[topology.PortLocal] != int(node) || hi[topology.PortLocal] != int(node) {
			t.Error("local port should cover exactly the node's own label")
		}
	}
}

// XY routing under row-major labels is NOT interval-expressible (columns
// interleave rows) — the paper's "requires specific labeling schemes".
func TestIntervalRejectsXY(t *testing.T) {
	m := topology.NewMesh(8, 8)
	if err := Verify(KindInterval, m, routing.NewDimOrder(m, cls4, nil), cls4); err == nil {
		t.Error("expected an interval-expressibility error")
	}
}

func TestIntervalRejectsAdaptive(t *testing.T) {
	m := topology.NewMesh(8, 8)
	if err := Verify(KindInterval, m, routing.NewDuato(m, cls4), cls4); err == nil {
		t.Error("expected a determinism error")
	}
}

// Program builds every organization; the meta kinds route by their Fig. 8
// mapping, the others by the algorithm itself.
func TestBuildKinds(t *testing.T) {
	m := topology.NewMesh(8, 8)
	alg := routing.NewDuato(m, cls4)
	for _, k := range Kinds {
		a := alg
		if k == KindInterval {
			a = routing.NewDimOrder(m, cls4, []int{1, 0})
		}
		r := Program(k, m, a, cls4)
		if k.String() == "" || r.fn.Name() == "" {
			t.Errorf("names empty for %v", k)
		}
		if meta := k == KindMetaRow || k == KindMetaBlock; meta != (r.fn != a) {
			t.Errorf("%s routes by %s", k, r.fn.Name())
		}
	}
}
