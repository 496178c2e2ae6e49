package table

import (
	"fmt"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/topology"
)

// Interval is an interval-routing table (section 5.1.2, Transputer C-104
// style): each output port stores one contiguous interval of node labels;
// a destination is routed through the port whose interval contains it.
// The table size equals the port count, independent of network size, but
// the scheme is deterministic and needs a compatible labeling: row-major
// labels support dimension-order YX (rows are contiguous label runs), and
// the constructor panics if the supplied algorithm's port partitions are
// not contiguous — reproducing the paper's observation that interval
// routing "requires specific labeling schemes" and "is not readily
// receptive to adaptive routing".
type Interval struct {
	m      *topology.Mesh
	alg    routing.Algorithm
	node   topology.NodeID
	numVCs int
	// lo[p], hi[p]: inclusive label interval per port; lo > hi marks an
	// unused port.
	lo, hi []int
	// exc overlays destinations whose route falls outside their port's
	// interval. Healthy deterministic algorithms need none (and the
	// constructor panics if they would); position-dependent fault detours
	// break label contiguity, so each port keeps its longest contiguous
	// run and the stragglers become exception entries — the C-104
	// lineage's "interval labelling with exceptions".
	exc    map[topology.NodeID]flow.RouteSet
	posDep bool
}

// NewInterval programs an interval table for node from a deterministic
// algorithm: a sign-routed one's port toward each destination is its sign
// class's, a position-dependent one's gets exception entries. It panics if
// the algorithm is adaptive, neither of those, or not interval-expressible
// under row-major labels.
func NewInterval(m *topology.Mesh, alg routing.Algorithm, cls routing.Class, node topology.NodeID) *Interval {
	if !alg.Deterministic() {
		panic("table: interval routing requires a deterministic algorithm")
	}
	if m.Wrap() {
		panic("table: interval routing tables support meshes only")
	}
	np := m.NumPorts()
	t := &Interval{m: m, alg: alg, node: node, numVCs: cls.NumVCs, lo: make([]int, np), hi: make([]int, np)}
	for p := range t.lo {
		t.lo[p], t.hi[p] = 1, 0 // empty
	}
	if routing.IsPositionDependent(alg) {
		t.posDep = true
		t.programWithExceptions()
		return t
	}
	sr, ok := alg.(routing.SignRouted)
	if !ok {
		panic(fmt.Sprintf("table: %s is not interval-expressible at node %d: it is neither sign-routed nor position-dependent",
			alg.Name(), node))
	}
	signPort := make([]topology.Port, ESEntryCount(m.NumDims()))
	for s := range signPort {
		signPort[s] = sr.RouteSigns(node, s, 0).At(0).Port
	}
	for id, s := range m.SignIndices(node) {
		dst, p := int(id), signPort[s]
		if t.lo[p] > t.hi[p] {
			t.lo[p], t.hi[p] = dst, dst
			continue
		}
		if dst != t.hi[p]+1 {
			panic(fmt.Sprintf("table: %s is not interval-expressible at node %d: port %s covers %d..%d and %d",
				alg.Name(), node, m.PortName(p), t.lo[p], t.hi[p], dst))
		}
		t.hi[p] = dst
	}
	return t
}

// programWithExceptions builds the fault-tolerant interval table: each
// port's interval is the longest contiguous label run the degraded
// routing function assigns to it, and every destination outside its
// port's run is stored as an exception entry.
func (t *Interval) programWithExceptions() {
	m := t.m
	portOf := make([]topology.Port, m.N())
	routes := make([]flow.RouteSet, m.N())
	for dst := 0; dst < m.N(); dst++ {
		rs := t.alg.Route(t.node, topology.NodeID(dst), 0)
		routes[dst] = rs
		if rs.Empty() {
			portOf[dst] = topology.InvalidPort // unroutable (dead) label
			continue
		}
		portOf[dst] = rs.At(0).Port
	}
	// Longest contiguous run per port.
	for p := 0; p < m.NumPorts(); p++ {
		port := topology.Port(p)
		bestLo, bestHi := 1, 0
		for dst := 0; dst < m.N(); {
			if portOf[dst] != port {
				dst++
				continue
			}
			runLo := dst
			for dst < m.N() && portOf[dst] == port {
				dst++
			}
			if dst-1-runLo > bestHi-bestLo {
				bestLo, bestHi = runLo, dst-1
			}
		}
		t.lo[p], t.hi[p] = bestLo, bestHi
	}
	for dst := 0; dst < m.N(); dst++ {
		p := portOf[dst]
		if p == topology.InvalidPort {
			continue
		}
		if dst >= t.lo[p] && dst <= t.hi[p] {
			continue
		}
		if t.exc == nil {
			t.exc = make(map[topology.NodeID]flow.RouteSet)
		}
		t.exc[topology.NodeID(dst)] = routes[dst]
	}
}

// Name implements Table.
func (t *Interval) Name() string { return "interval" }

// Node implements Table.
func (t *Interval) Node() topology.NodeID { return t.node }

// Entries implements Table: one interval per port, plus any fault
// exception entries.
func (t *Interval) Entries() int { return t.m.NumPorts() + len(t.exc) }

// Lookup implements Table.
func (t *Interval) Lookup(dst topology.NodeID, dateline uint8) flow.RouteSet {
	if t.exc != nil {
		if rs, ok := t.exc[dst]; ok {
			return rs
		}
	}
	for p := range t.lo {
		if int(dst) >= t.lo[p] && int(dst) <= t.hi[p] {
			var r flow.RouteSet
			r.Add(flow.Candidate{Port: topology.Port(p), Adaptive: flow.MaskAll(t.numVCs)})
			return r
		}
	}
	if t.posDep {
		// Unroutable (dead-router) labels have no interval and no
		// exception; mirror the algorithm's and the ES table's empty set
		// rather than panicking.
		return flow.RouteSet{}
	}
	panic(fmt.Sprintf("table: no interval covers destination %d at node %d", dst, t.node))
}

// LookupAt implements Table by evaluating the routing function at the
// neighbor; a hardware interval router would not support look-ahead (the
// paper lists this as one of the scheme's limitations), but the simulator
// allows the combination for completeness.
func (t *Interval) LookupAt(p topology.Port, dst topology.NodeID, dateline uint8) flow.RouteSet {
	nb, ok := t.m.Neighbor(t.node, p)
	if !ok {
		panic("table: LookupAt through port without neighbor")
	}
	return t.alg.Route(nb, dst, dateline)
}

// Intervals returns the per-port label intervals for diagnostics; ok is
// false for ports with no assigned labels.
func (t *Interval) Intervals(p topology.Port) (lo, hi int, ok bool) {
	if int(p) >= len(t.lo) || t.lo[p] > t.hi[p] {
		return 0, 0, false
	}
	return t.lo[p], t.hi[p], true
}
