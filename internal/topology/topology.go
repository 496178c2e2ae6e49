// Package topology models the direct-network topologies used by the LAPSES
// study: k-ary n-dimensional meshes and tori. It provides node addressing in
// both linear IDs and Cartesian coordinates, the port numbering convention
// shared by the router and the routing tables, and derived quantities such as
// hop distance and bisection channel counts used for load normalization.
//
// Port numbering: port 0 is always the local (processing element) port. For
// dimension d (0-based), port 1+2d points in the positive direction and port
// 2+2d in the negative direction. In two dimensions this yields the paper's
// five-port router: 0=local, 1=+X(East), 2=-X(West), 3=+Y(North), 4=-Y(South).
package topology

import (
	"fmt"
	"strings"
)

// NodeID is the linear address of a node. Nodes are numbered row-major:
// id = x + k*(y + k*z + ...), i.e. dimension 0 varies fastest.
type NodeID int32

// Port identifies one of a router's physical ports. Port 0 is the local
// port; see the package comment for the directional numbering.
type Port int8

// PortLocal is the port connecting a router to its processing element.
const PortLocal Port = 0

// Invalid values used as sentinels.
const (
	InvalidNode NodeID = -1
	InvalidPort Port   = -1
)

// Coord is an n-dimensional Cartesian coordinate. Coord[0] is the X
// coordinate (dimension 0).
type Coord []int

// Mesh is a k-ary n-dimensional mesh, or a torus when Wrap is true.
// The zero value is not usable; construct with New, NewMesh or NewTorus.
type Mesh struct {
	dims []int // radix per dimension
	wrap bool
	n    int // total node count
}

// NewMesh returns an n-dimensional mesh with the given per-dimension radices.
// NewMesh(16, 16) is the paper's 256-node 2-D mesh.
func NewMesh(dims ...int) *Mesh { return New(false, dims...) }

// NewTorus returns an n-dimensional torus with the given radices.
func NewTorus(dims ...int) *Mesh { return New(true, dims...) }

// New constructs a mesh (wrap=false) or torus (wrap=true). It panics if no
// dimensions are given or any radix is < 2, since such networks have no
// routing decisions to study.
func New(wrap bool, dims ...int) *Mesh {
	if len(dims) == 0 {
		panic("topology: no dimensions")
	}
	n := 1
	for _, k := range dims {
		if k < 2 {
			panic(fmt.Sprintf("topology: radix %d < 2", k))
		}
		n *= k
	}
	d := make([]int, len(dims))
	copy(d, dims)
	return &Mesh{dims: d, wrap: wrap, n: n}
}

// Dims returns the per-dimension radices. The caller must not modify it.
func (m *Mesh) Dims() []int { return m.dims }

// NumDims returns the number of dimensions n.
func (m *Mesh) NumDims() int { return len(m.dims) }

// Wrap reports whether the network is a torus.
func (m *Mesh) Wrap() bool { return m.wrap }

// N returns the total number of nodes.
func (m *Mesh) N() int { return m.n }

// Radix returns the radix of dimension d.
func (m *Mesh) Radix(d int) int { return m.dims[d] }

// NumPorts returns the number of router ports: one local port plus two per
// dimension.
func (m *Mesh) NumPorts() int { return 1 + 2*len(m.dims) }

// PortPlus returns the port pointing in the positive direction of dim d.
func PortPlus(d int) Port { return Port(1 + 2*d) }

// PortMinus returns the port pointing in the negative direction of dim d.
func PortMinus(d int) Port { return Port(2 + 2*d) }

// PortDim returns the dimension a directional port travels in.
// It panics for the local port.
func PortDim(p Port) int {
	if p <= PortLocal {
		panic("topology: PortDim of non-directional port")
	}
	return int(p-1) / 2
}

// PortSign returns +1 for a positive-direction port, -1 for a negative one,
// and 0 for the local port.
func PortSign(p Port) int {
	switch {
	case p == PortLocal:
		return 0
	case (p-1)%2 == 0:
		return +1
	default:
		return -1
	}
}

// Opposite returns the port facing p on the neighboring router: +X pairs
// with -X and so on. The local port is its own opposite.
func Opposite(p Port) Port {
	if p == PortLocal {
		return PortLocal
	}
	if PortSign(p) > 0 {
		return p + 1
	}
	return p - 1
}

// PortName returns a short human-readable name for a port under this
// topology's dimensionality ("L", "+X", "-Y", "+D2", ...).
func (m *Mesh) PortName(p Port) string {
	if p == PortLocal {
		return "L"
	}
	d := PortDim(p)
	sign := "+"
	if PortSign(p) < 0 {
		sign = "-"
	}
	if d < 3 {
		return sign + string("XYZ"[d])
	}
	return fmt.Sprintf("%sD%d", sign, d)
}

// ID converts a coordinate to a linear node ID. It panics if the coordinate
// is out of range, since that is always a programming error.
func (m *Mesh) ID(c Coord) NodeID {
	if len(c) != len(m.dims) {
		panic("topology: coordinate dimensionality mismatch")
	}
	id := 0
	for d := len(m.dims) - 1; d >= 0; d-- {
		if c[d] < 0 || c[d] >= m.dims[d] {
			panic(fmt.Sprintf("topology: coordinate %v out of range", c))
		}
		id = id*m.dims[d] + c[d]
	}
	return NodeID(id)
}

// CoordOf converts a linear node ID to a coordinate, allocating the result.
func (m *Mesh) CoordOf(id NodeID) Coord {
	c := make(Coord, len(m.dims))
	m.CoordInto(id, c)
	return c
}

// CoordInto writes the coordinate of id into dst, which must have length
// NumDims. It exists so hot paths can avoid allocation.
func (m *Mesh) CoordInto(id NodeID, dst Coord) {
	v := int(id)
	for d := 0; d < len(m.dims); d++ {
		dst[d] = v % m.dims[d]
		v /= m.dims[d]
	}
}

// CoordAxis returns coordinate component d of node id without allocating.
func (m *Mesh) CoordAxis(id NodeID, d int) int {
	v := int(id)
	for i := 0; i < d; i++ {
		v /= m.dims[i]
	}
	return v % m.dims[d]
}

// Valid reports whether id names a node in the network.
func (m *Mesh) Valid(id NodeID) bool { return id >= 0 && int(id) < m.n }

// Neighbor returns the node reached by leaving id through port p, and
// whether such a link exists. The local port and mesh-edge ports have no
// neighbor. In a torus every directional port has a neighbor.
func (m *Mesh) Neighbor(id NodeID, p Port) (NodeID, bool) {
	if p == PortLocal || !m.Valid(id) {
		return InvalidNode, false
	}
	d := PortDim(p)
	if d >= len(m.dims) {
		return InvalidNode, false
	}
	x := m.CoordAxis(id, d)
	k := m.dims[d]
	nx := x + PortSign(p)
	if m.wrap {
		nx = (nx + k) % k
	} else if nx < 0 || nx >= k {
		return InvalidNode, false
	}
	// Recompute the linear ID by offsetting along dimension d.
	stride := 1
	for i := 0; i < d; i++ {
		stride *= m.dims[i]
	}
	return id + NodeID((nx-x)*stride), true
}

// OffsetSign returns the sign (-1, 0, +1) of the minimal-path offset from
// cur to dst along dimension d. In a mesh this is sign(dst-cur). In a torus
// the shorter wrap direction is chosen; exact half-way ties resolve to the
// positive direction so that routing is deterministic.
func (m *Mesh) OffsetSign(cur, dst NodeID, d int) int {
	return m.sign(m.CoordAxis(dst, d)-m.CoordAxis(cur, d), m.dims[d])
}

// sign is OffsetSign for a coordinate difference delta along a dimension
// of radix k.
func (m *Mesh) sign(delta, k int) int {
	if m.wrap {
		// Normalize to (-k/2, k/2]: take the shorter wrap direction,
		// with exact half-way ties resolving positive.
		if 2*delta > k {
			delta -= k
		} else if 2*-delta >= k { // -delta >= k/2: wrapping positive is no longer
			delta += k
		}
	}
	if delta > 0 {
		return 1
	}
	if delta < 0 {
		return -1
	}
	return 0
}

// SignIndex returns the base-3 index of dst's offset-sign vector from cur:
// digit d is OffsetSign(cur, dst, d)+1, dimension 0 least significant, so
// the index lies in [0, 3^n) and dst == cur is (3^n-1)/2. It is the index
// of the paper's economical-storage table (section 5.2); SignAt decodes
// it.
func (m *Mesh) SignIndex(cur, dst NodeID) int {
	idx, w := 0, 1
	c, t := int(cur), int(dst)
	for _, k := range m.dims {
		idx += (m.sign(t%k-c%k, k) + 1) * w
		c, t, w = c/k, t/k, w*3
	}
	return idx
}

// SignAt returns the sign (-1, 0, +1) of dimension d in a sign index.
func SignAt(idx, d int) int {
	for ; d > 0; d-- {
		idx /= 3
	}
	return idx%3 - 1
}

// Distance returns the minimal hop count between two nodes.
func (m *Mesh) Distance(a, b NodeID) int {
	total := 0
	for d := range m.dims {
		ac, bc := m.CoordAxis(a, d), m.CoordAxis(b, d)
		delta := bc - ac
		if delta < 0 {
			delta = -delta
		}
		if m.wrap && m.dims[d]-delta < delta {
			delta = m.dims[d] - delta
		}
		total += delta
	}
	return total
}

// BisectionChannels returns the number of unidirectional channels crossing
// the network bisection (cut across the highest-radix dimension). For the
// 16x16 mesh this is 32 (16 links each way); a torus doubles it.
func (m *Mesh) BisectionChannels() int {
	// Cut across the first dimension of maximal radix.
	maxD := 0
	for d, k := range m.dims {
		if k > m.dims[maxD] {
			maxD = d
		}
		_ = d
	}
	cross := m.n / m.dims[maxD] // nodes per "slice" row crossing the cut
	ch := 2 * cross             // one link each way per row
	if m.wrap {
		ch *= 2 // wraparound links also cross
	}
	return ch
}

// SaturationInjectionRate returns the per-node flit injection rate
// (flits/node/cycle) that loads the bisection to capacity under uniform
// traffic. Normalized load 1.0 in the paper corresponds to this rate:
// for a k x k mesh it is 4k/N (0.25 for 16x16).
func (m *Mesh) SaturationInjectionRate() float64 {
	// Under uniform traffic half of all traffic crosses the bisection,
	// split evenly between the two directions. With per-node rate r the
	// flits/cycle crossing one way is N*r/4, and one-way capacity is
	// BisectionChannels()/2, so r = 2*BisectionChannels()/N.
	return 2 * float64(m.BisectionChannels()) / float64(m.n)
}

// ReachableFrom returns, per node, whether it can be reached from src in
// the subgraph induced by the nodeOK and linkOK predicates (BFS over live
// links between live nodes). A link is traversable only when linkOK holds
// for the outgoing (node, port) pair; predicates may be nil, meaning
// everything is usable. It underlies the degraded-topology connectivity
// checks of the fault subsystem.
func (m *Mesh) ReachableFrom(src NodeID, nodeOK func(NodeID) bool, linkOK func(NodeID, Port) bool) []bool {
	seen := make([]bool, m.n)
	if !m.Valid(src) || (nodeOK != nil && !nodeOK(src)) {
		return seen
	}
	seen[src] = true
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for p := 1; p < m.NumPorts(); p++ {
			port := Port(p)
			nb, ok := m.Neighbor(cur, port)
			if !ok || seen[nb] {
				continue
			}
			if linkOK != nil && !linkOK(cur, port) {
				continue
			}
			if nodeOK != nil && !nodeOK(nb) {
				continue
			}
			seen[nb] = true
			queue = append(queue, nb)
		}
	}
	return seen
}

// SubgraphConnected reports whether every node passing nodeOK is reachable
// from every other over links passing linkOK. A subgraph with fewer than
// two live nodes is trivially connected.
func (m *Mesh) SubgraphConnected(nodeOK func(NodeID) bool, linkOK func(NodeID, Port) bool) bool {
	root := InvalidNode
	live := 0
	for id := NodeID(0); int(id) < m.n; id++ {
		if nodeOK == nil || nodeOK(id) {
			if root == InvalidNode {
				root = id
			}
			live++
		}
	}
	if live < 2 {
		return true
	}
	seen := m.ReachableFrom(root, nodeOK, linkOK)
	reached := 0
	for _, s := range seen {
		if s {
			reached++
		}
	}
	return reached == live
}

// String returns a compact description such as "mesh(16x16)" or
// "torus(8x8x8)".
func (m *Mesh) String() string {
	var b strings.Builder
	if m.wrap {
		b.WriteString("torus(")
	} else {
		b.WriteString("mesh(")
	}
	for i, k := range m.dims {
		if i > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%d", k)
	}
	b.WriteByte(')')
	return b.String()
}
