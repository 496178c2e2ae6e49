package table

import (
	"fmt"
	"strings"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/topology"
)

// MetaMapping selects the node-labeling scheme for two-level meta-table
// routing on a 2-D mesh (the paper's Fig. 8).
type MetaMapping int

const (
	// MapRow is Fig. 8(a): each cluster is one row. Routing to a remote
	// cluster has exactly one choice (toward that row) and routing
	// within a cluster has one choice (along the row), so the scheme
	// degenerates to deterministic dimension-order routing — the paper's
	// "minimal flexibility" mapping ("Meta-Tbl Det." in Table 4).
	MapRow MetaMapping = iota
	// MapBlock is Fig. 8(b): clusters are square sub-meshes arranged in
	// a square grid, giving adaptivity both between and within clusters
	// — the "maximal flexibility" mapping ("Meta-Tbl Adp." in Table 4).
	// Its weakness, which Table 4 exposes, is that inside an
	// intermediate cluster the cluster-table entry allows only one
	// direction, so messages lose all adaptivity until they cross into
	// the destination cluster.
	MapBlock
)

func (mm MetaMapping) String() string {
	if mm == MapRow {
		return "row"
	}
	return "block"
}

// Meta is two-level hierarchical routing on a 2-D mesh as a routing
// function: each router holds a cluster table with one entry per cluster and
// a sub-cluster table with one entry per node of the local cluster, and the
// route is what those tables answer. The cluster structure is global
// knowledge, so the look-ahead entry is the same function at the neighbor.
//
// Deadlock freedom: MapRow is deterministic dimension-order (deadlock-free
// on every VC). MapBlock restricts its adaptive VCs to the cluster-table
// candidates and keeps a node-level dimension-order escape VC; the paper
// does not specify an escape mechanism, so this is a substitution.
type Meta struct {
	m       *topology.Mesh
	alg     routing.Algorithm
	cls     routing.Class
	mapping MetaMapping
	cw, ch  int // cluster width and height in nodes
}

// NewMeta returns the meta-table routing of m under mapping; alg is the
// routing the MapBlock sub-cluster tables defer to. Only 2-D meshes are
// supported, matching the paper's study.
func NewMeta(m *topology.Mesh, alg routing.Algorithm, cls routing.Class, mapping MetaMapping) *Meta {
	t := &Meta{m: m, alg: alg, cls: cls, mapping: mapping}
	t.cw, t.ch = clusterShape(m, mapping)
	return t
}

// clusterShape returns the cluster width and height of mapping on m: whole
// rows for MapRow, square-ish blocks for MapBlock (16x16 uses 4x4 blocks of
// 4x4 nodes). It panics unless m is a 2-D mesh.
func clusterShape(m *topology.Mesh, mapping MetaMapping) (cw, ch int) {
	if m.NumDims() != 2 || m.Wrap() {
		panic("table: meta-table routing is defined for 2-D meshes")
	}
	switch mapping {
	case MapRow:
		return m.Radix(0), 1
	case MapBlock:
		return blockFactor(m.Radix(0)), blockFactor(m.Radix(1))
	}
	panic("table: unknown meta mapping")
}

// blockFactor returns the square-ish cluster edge for a radix: the largest
// divisor d of k with d*d <= k (4 for 16, yielding 4x4 clusters of 4x4).
func blockFactor(k int) int {
	best := 1
	for d := 1; d*d <= k; d++ {
		if k%d == 0 {
			best = d
		}
	}
	if best == 1 && k > 1 {
		// Prime radix: fall back to rows of height 1.
		return 1
	}
	return best
}

// Name implements routing.Algorithm.
func (t *Meta) Name() string { return "meta-" + t.mapping.String() }

// Deterministic implements routing.Algorithm: the row mapping offers one
// candidate, the block mapping adaptive ones.
func (t *Meta) Deterministic() bool { return t.mapping == MapRow }

// ClusterOf returns the cluster index of a node (row-major over clusters).
func (t *Meta) ClusterOf(id topology.NodeID) int {
	x, y := t.m.CoordAxis(id, 0), t.m.CoordAxis(id, 1)
	return (x / t.cw) + (t.m.Radix(0)/t.cw)*(y/t.ch)
}

// Label returns the hierarchical label of a node: cluster id in the high
// digits, sub-cluster id in the low (the Fig. 8 labels).
func (t *Meta) Label(id topology.NodeID) int {
	x, y := t.m.CoordAxis(id, 0), t.m.CoordAxis(id, 1)
	sub := (x % t.cw) + t.cw*(y%t.ch)
	return t.ClusterOf(id)*(t.cw*t.ch) + sub
}

// Route implements routing.Algorithm: the cluster-table entry toward a
// remote cluster, the sub-cluster entry within the destination cluster.
func (t *Meta) Route(at, dst topology.NodeID, dateline uint8) flow.RouteSet {
	if at == dst {
		var r flow.RouteSet
		r.Add(flow.Candidate{Port: topology.PortLocal, Adaptive: flow.MaskAll(t.cls.NumVCs)})
		return r
	}
	ax, ay := t.m.CoordAxis(at, 0), t.m.CoordAxis(at, 1)
	dx, dy := t.m.CoordAxis(dst, 0), t.m.CoordAxis(dst, 1)
	sameCluster := ax/t.cw == dx/t.cw && ay/t.ch == dy/t.ch

	if t.mapping == MapRow {
		// Deterministic: toward the destination row first (cluster
		// table), then along the row (sub-cluster table). Every VC is
		// usable: this is dimension-order YX.
		var r flow.RouteSet
		all := flow.MaskAll(t.cls.NumVCs)
		if dy != ay {
			r.Add(flow.Candidate{Port: portTowardSign(1, dy-ay), Adaptive: all})
		} else {
			r.Add(flow.Candidate{Port: portTowardSign(0, dx-ax), Adaptive: all})
		}
		return r
	}

	// MapBlock. Within the destination cluster the sub-table is a full
	// map: defer to the adaptive algorithm (minimal adaptive + escape).
	if sameCluster {
		return t.alg.Route(at, dst, dateline)
	}
	// Remote cluster: the cluster-table entry allows the directions that
	// move toward the destination cluster's region, at cluster
	// granularity. All nodes of an intermediate cluster share the
	// region-relative signs in the dimension that matters, which is what
	// destroys adaptivity at cluster boundaries.
	var r flow.RouteSet
	adaptive := t.cls.AdaptiveMask()
	sx := regionSign(ax, dx/t.cw*t.cw, t.cw)
	sy := regionSign(ay, dy/t.ch*t.ch, t.ch)
	if sx != 0 {
		r.Add(flow.Candidate{Port: portTowardSign(0, sx), Adaptive: adaptive})
	}
	if sy != 0 {
		r.Add(flow.Candidate{Port: portTowardSign(1, sy), Adaptive: adaptive})
	}
	// Node-level dimension-order escape VC (deadlock-freedom
	// substitution; see the type comment).
	var escPort topology.Port
	if dx != ax {
		escPort = portTowardSign(0, dx-ax)
	} else {
		escPort = portTowardSign(1, dy-ay)
	}
	merged := false
	for i := 0; i < r.Len(); i++ {
		if r.At(i).Port == escPort {
			c := r.At(i)
			c.Escape = t.cls.EscapeMask()
			r = replaceAt(r, i, c)
			merged = true
			break
		}
	}
	if !merged {
		r.Add(flow.Candidate{Port: escPort, Escape: t.cls.EscapeMask()})
	}
	return r
}

// regionSign returns the direction (-1, 0, +1) from coordinate a toward
// the cluster region [lo, lo+size).
func regionSign(a, lo, size int) int {
	switch {
	case a < lo:
		return 1
	case a >= lo+size:
		return -1
	}
	return 0
}

func portTowardSign(d, delta int) topology.Port {
	if delta > 0 {
		return topology.PortPlus(d)
	}
	if delta < 0 {
		return topology.PortMinus(d)
	}
	panic("table: portTowardSign with zero offset")
}

// replaceAt returns a copy of rs with candidate i replaced.
func replaceAt(rs flow.RouteSet, i int, c flow.Candidate) flow.RouteSet {
	var out flow.RouteSet
	for j := 0; j < rs.Len(); j++ {
		if j == i {
			out.Add(c)
		} else {
			out.Add(rs.At(j))
		}
	}
	return out
}

// DumpMapping renders the cluster labels of the whole mesh in the style of
// Fig. 8, one row of cluster ids per mesh row.
func (t *Meta) DumpMapping() string {
	var b strings.Builder
	for y := t.m.Radix(1) - 1; y >= 0; y-- {
		for x := 0; x < t.m.Radix(0); x++ {
			id := t.m.ID(topology.Coord{x, y})
			fmt.Fprintf(&b, "%3d/%-3d ", t.ClusterOf(id), t.Label(id))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
