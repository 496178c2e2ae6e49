package routing

import (
	"fmt"

	"lapses/internal/fault"
	"lapses/internal/flow"
	"lapses/internal/topology"
)

// Fault-aware routing over a degraded topology. Dimension-order escape
// routing stops working the moment a link on the dimension-order path
// fails, so the fault variants replace the escape subfunction with
// up*/down* routing over a BFS spanning order of the live graph: every
// link is oriented "up" toward the BFS root (lower level, then lower id),
// and the deterministic route climbs up-links until a down-only path to
// the destination exists, then descends. Up-only and down-only channel
// sets are each acyclic (they follow a strict total node order), and the
// route never turns from down back to up, so the escape channel dependency
// graph is acyclic on any connected subgraph — mesh or torus, no datelines
// needed (TestFaultPlanProperties checks this with the real dependency
// builder).
//
// NewFaultDuato keeps Duato's structure on top of that escape: adaptive
// VCs are offered on every live port that strictly reduces the degraded-
// graph distance to the destination, so adaptivity steers around both
// faults and congestion. NewFaultDimOrder is the deterministic baseline:
// the up*/down* path alone, on every VC.

// PositionDependent marks routing functions whose result depends on the
// absolute position of the current node (fault detours), not only on the
// offset to the destination. table.Verify accepts such functions for the
// economical-storage and interval organizations, because under faults a
// structure's lookup is the fault-aware function itself, and the deadlock
// checker uses it to skip the minimal-routing dateline analysis
// (position-dependent algorithms here never vary masks with wrap-crossing
// state).
type PositionDependent interface {
	PositionDependent() bool
}

// IsPositionDependent reports whether alg declares position-dependent
// routing.
func IsPositionDependent(alg Algorithm) bool {
	p, ok := alg.(PositionDependent)
	return ok && p.PositionDependent()
}

// faultTables holds the precomputed per-(node, destination) routing state
// shared by both fault-aware algorithms. All fields are immutable after
// construction.
type faultTables struct {
	m     *topology.Mesh
	plan  *fault.Plan
	n     int
	ports int
	live  []bool
	// dist[dst*n+cur] is the minimal live-path hop count, -1 if unroutable
	// (either endpoint dead). Adaptive candidates are the live ports that
	// strictly decrease it.
	dist []int16
	// next[dst*n+cur] is the deterministic up*/down* next-hop port, -1 at
	// the destination and for unroutable pairs.
	next []int8
}

// newFaultTables builds the degraded-graph routing state, or an error when
// the live subgraph is disconnected (no deadlock-free escape subnetwork
// exists, so no routing function can be programmed).
func newFaultTables(m *topology.Mesh, plan *fault.Plan) (*faultTables, error) {
	t := &faultTables{m: m, plan: plan, n: m.N(), ports: m.NumPorts()}
	t.live = make([]bool, t.n)
	root := topology.InvalidNode
	nLive := 0
	for id := 0; id < t.n; id++ {
		t.live[id] = !plan.NodeDead(topology.NodeID(id))
		if t.live[id] {
			if root == topology.InvalidNode {
				root = topology.NodeID(id)
			}
			nLive++
		}
	}
	if nLive == 0 {
		return nil, fmt.Errorf("routing: fault plan kills every router of %s", m)
	}
	if !plan.Connected(m) {
		return nil, fmt.Errorf("routing: escape subnetwork disconnected: fault plan %s splits %s into unreachable regions", plan, m)
	}

	// BFS levels from the root define the up/down orientation: a hop from
	// u to v is "up" when (level[v], v) < (level[u], u) in lexicographic
	// order, "down" otherwise. The order is total, so each direction class
	// is cycle-free by construction.
	level := make([]int32, t.n)
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	queue := make([]topology.NodeID, 0, nLive)
	queue = append(queue, root)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for p := 1; p < t.ports; p++ {
			nb, ok := t.liveNeighbor(cur, topology.Port(p))
			if !ok || level[nb] >= 0 {
				continue
			}
			level[nb] = level[cur] + 1
			queue = append(queue, nb)
		}
	}
	up := func(from, to topology.NodeID) bool {
		return level[to] < level[from] || (level[to] == level[from] && to < from)
	}

	// byOrder lists live nodes in ascending (level, id) order; the g
	// recursion below consumes it so every up-neighbor is final before its
	// dependents are processed.
	byOrder := make([]topology.NodeID, len(queue))
	copy(byOrder, queue)
	for i := 1; i < len(byOrder); i++ {
		for j := i; j > 0 && less(level, byOrder[j], byOrder[j-1]); j-- {
			byOrder[j], byOrder[j-1] = byOrder[j-1], byOrder[j]
		}
	}

	t.dist = make([]int16, t.n*t.n)
	t.next = make([]int8, t.n*t.n)
	for i := range t.dist {
		t.dist[i] = -1
		t.next[i] = -1
	}
	const inf = int32(1) << 30
	dDown := make([]int32, t.n)
	g := make([]int32, t.n)
	bfs := make([]topology.NodeID, 0, nLive)
	for _, dst := range byOrder {
		base := int(dst) * t.n
		// Minimal distance over all live edges (for adaptive candidates).
		t.dist[base+int(dst)] = 0
		bfs = bfs[:0]
		bfs = append(bfs, dst)
		for head := 0; head < len(bfs); head++ {
			cur := bfs[head]
			for p := 1; p < t.ports; p++ {
				nb, ok := t.liveNeighbor(cur, topology.Port(p))
				if !ok || t.dist[base+int(nb)] >= 0 {
					continue
				}
				t.dist[base+int(nb)] = t.dist[base+int(cur)] + 1
				bfs = append(bfs, nb)
			}
		}
		// dDown[x]: shortest x->dst path using only down hops, via reverse
		// BFS from dst (a predecessor u of v sits above v in the order).
		for i := range dDown {
			dDown[i] = inf
		}
		dDown[dst] = 0
		bfs = bfs[:0]
		bfs = append(bfs, dst)
		for head := 0; head < len(bfs); head++ {
			cur := bfs[head]
			for p := 1; p < t.ports; p++ {
				nb, ok := t.liveNeighbor(cur, topology.Port(p))
				if !ok || !up(cur, nb) || dDown[nb] < inf {
					continue
				}
				dDown[nb] = dDown[cur] + 1
				bfs = append(bfs, nb)
			}
		}
		// g[x]: shortest legal up-then-down distance. Processing in
		// ascending order makes every up-neighbor's g final on arrival.
		// The next hop prefers descending whenever a down-only path
		// exists (never turning back up keeps the dependency graph
		// acyclic), otherwise climbs toward the cheapest up-neighbor.
		for _, x := range byOrder {
			if x == dst {
				g[x] = 0
				continue
			}
			bestPort, bestScore, goDown := int8(-1), inf, dDown[x] < inf
			for p := 1; p < t.ports; p++ {
				nb, ok := t.liveNeighbor(x, topology.Port(p))
				if !ok {
					continue
				}
				if goDown {
					if up(x, nb) || dDown[nb] >= inf {
						continue
					}
					if dDown[nb]+1 < bestScore {
						bestScore, bestPort = dDown[nb]+1, int8(p)
					}
				} else {
					if !up(x, nb) {
						continue
					}
					if g[nb]+1 < bestScore {
						bestScore, bestPort = g[nb]+1, int8(p)
					}
				}
			}
			if bestPort < 0 {
				// Unreachable from a connected live graph is impossible;
				// keep the loud failure for future topology bugs.
				panic(fmt.Sprintf("routing: no up*/down* hop from %d to %d", x, dst))
			}
			g[x] = bestScore
			t.next[base+int(x)] = bestPort
		}
	}
	return t, nil
}

// less orders live nodes by (level, id).
func less(level []int32, a, b topology.NodeID) bool {
	return level[a] < level[b] || (level[a] == level[b] && a < b)
}

// liveNeighbor returns the neighbor through port p when the link and both
// endpoints are live.
func (t *faultTables) liveNeighbor(cur topology.NodeID, p topology.Port) (topology.NodeID, bool) {
	if t.plan.LinkDead(cur, p) {
		return topology.InvalidNode, false
	}
	nb, ok := t.m.Neighbor(cur, p)
	if !ok || !t.live[nb] || !t.live[cur] {
		return topology.InvalidNode, false
	}
	return nb, ok
}

// faultDuato is Duato-style fully adaptive routing over the degraded
// graph: adaptive VCs on distance-reducing live ports, escape VCs on the
// up*/down* port.
type faultDuato struct {
	t   *faultTables
	cls Class
}

// NewFaultDuato returns adaptive routing around the failures of plan. It
// returns a descriptive error when the fault plan disconnects the live
// network (no escape subnetwork exists). It panics without escape VCs,
// like NewDuato; unlike the healthy torus variant a single escape VC
// suffices, since up*/down* needs no dateline split.
func NewFaultDuato(m *topology.Mesh, cls Class, plan *fault.Plan) (Algorithm, error) {
	if cls.EscapeVCs < 1 {
		panic("routing: fault-aware Duato routing requires at least one escape VC")
	}
	t, err := newFaultTables(m, plan)
	if err != nil {
		return nil, err
	}
	return &faultDuato{t: t, cls: cls}, nil
}

func (a *faultDuato) Name() string            { return "fault-duato" }
func (a *faultDuato) Deterministic() bool     { return false }
func (a *faultDuato) PositionDependent() bool { return true }

// faultEjectSet is the eject candidate for fault-aware routing: unlike
// the healthy ejectSet it also carries the escape mask, so a message
// committed to the escape class (router escape-commit discipline) can
// still claim a local-port VC and leave the network.
func faultEjectSet(cls Class) flow.RouteSet {
	var r flow.RouteSet
	r.Add(flow.Candidate{
		Port:     topology.PortLocal,
		Adaptive: flow.MaskAll(cls.NumVCs),
		Escape:   cls.EscapeMask(),
	})
	return r
}

func (a *faultDuato) Route(cur, dst topology.NodeID, dateline uint8) flow.RouteSet {
	if cur == dst {
		return faultEjectSet(a.cls)
	}
	base := int(dst) * a.t.n
	var r flow.RouteSet
	esc := a.t.next[base+int(cur)]
	if esc < 0 {
		// Unroutable pair (a dead endpoint): empty set. Traffic filtering
		// keeps such pairs out of the network; table builders still
		// enumerate them.
		return r
	}
	// The escape candidate leads; it may also carry the adaptive mask when
	// the up*/down* hop happens to be minimal.
	d := a.t.dist[base+int(cur)]
	adaptive := a.cls.AdaptiveMask()
	ec := flow.Candidate{Port: topology.Port(esc), Escape: a.cls.EscapeMask()}
	if nb, ok := a.t.liveNeighbor(cur, topology.Port(esc)); ok && a.t.dist[base+int(nb)] == d-1 {
		ec.Adaptive = adaptive
	}
	r.Add(ec)
	for p := 1; p < a.t.ports && r.Len() < flow.MaxCandidates; p++ {
		if int8(p) == esc {
			continue
		}
		nb, ok := a.t.liveNeighbor(cur, topology.Port(p))
		if !ok || a.t.dist[base+int(nb)] != d-1 {
			continue
		}
		r.Add(flow.Candidate{Port: topology.Port(p), Adaptive: adaptive})
	}
	return r
}

// faultDimOrder is the deterministic fault baseline: the pure up*/down*
// path on every VC (the function is deadlock-free on its own, so no VC
// class split is needed, mirroring how XY uses EscapeVCs=0).
type faultDimOrder struct {
	t   *faultTables
	cls Class
}

// NewFaultDimOrder returns deterministic up*/down* routing around the
// failures of plan, with the same disconnection error as NewFaultDuato.
func NewFaultDimOrder(m *topology.Mesh, cls Class, plan *fault.Plan) (Algorithm, error) {
	t, err := newFaultTables(m, plan)
	if err != nil {
		return nil, err
	}
	return &faultDimOrder{t: t, cls: cls}, nil
}

func (a *faultDimOrder) Name() string            { return "fault-updown" }
func (a *faultDimOrder) Deterministic() bool     { return true }
func (a *faultDimOrder) PositionDependent() bool { return true }

func (a *faultDimOrder) Route(cur, dst topology.NodeID, dateline uint8) flow.RouteSet {
	if cur == dst {
		return ejectSet(a.cls)
	}
	var r flow.RouteSet
	p := a.t.next[int(dst)*a.t.n+int(cur)]
	if p < 0 {
		return r
	}
	r.Add(flow.Candidate{Port: topology.Port(p), Adaptive: flow.MaskAll(a.cls.NumVCs)})
	return r
}
