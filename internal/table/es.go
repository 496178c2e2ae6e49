package table

import (
	"fmt"
	"strings"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/topology"
)

// ES is the paper's economical-storage routing table (section 5.2): a
// 3^n-entry table for an n-dimensional mesh, indexed by the sign vector
// (s_0, ..., s_{n-1}) of the destination's offset from the current router,
// each s_d in {-,0,+}. Nine entries suffice for a 2-D mesh of any size,
// 27 for 3-D. The router hardware needs only a node-id register and one
// comparator per dimension to form the index.
//
// The table contents depend only on the sign vector for every mesh routing
// algorithm the paper considers (XY, Duato, the turn models) — they are
// routing.SignRouted — so ES routing behaves identically to full-table
// routing by construction; Verify checks it exhaustively.
type ES struct {
	m    *topology.Mesh
	alg  routing.Algorithm
	node topology.NodeID
	// entries[datelineState][signIndex]
	entries [][]flow.RouteSet
	ndims   int
	// Position-dependent (fault-aware) algorithms are not globally
	// sign-expressible: routes detouring around failures differ between
	// destinations sharing an offset sign. The table then keeps the sign
	// entries for the majority case and an exception overlay — one full
	// entry per destination whose route differs from its sign entry —
	// mirroring how a real ES router near a fault would be patched with
	// a small CAM of exception destinations. exc[state] is nil when the
	// organization is exact (every healthy mesh algorithm).
	exc    []map[topology.NodeID]flow.RouteSet
	posDep bool
}

// NewES programs an economical-storage table for node from alg. For a
// routing.SignRouted algorithm each dateline state's 3^n entries are
// alg.RouteSigns of the node and the entry's sign vector, so the table
// equals the algorithm by construction — unrealized edge entries included,
// which the look-ahead lookup reads with neighbor-relative signs (on a
// mesh RouteSigns never reads the node). A position-dependent algorithm
// gets sign entries plus an exception overlay instead. It panics if alg is
// neither: nothing then says two destinations with the same offset signs
// share an entry, so the algorithm is not sign-expressible.
func NewES(m *topology.Mesh, alg routing.Algorithm, node topology.NodeID) *ES {
	posDep := routing.IsPositionDependent(alg)
	sr, signRouted := alg.(routing.SignRouted)
	if !posDep && !signRouted {
		panic(fmt.Sprintf("table: %s is not sign-expressible at node %d: it is neither sign-routed nor position-dependent",
			alg.Name(), node))
	}
	states := 1
	// Position-dependent algorithms never vary with wrap-crossing state,
	// so one state row suffices even on a torus.
	if m.Wrap() && !posDep {
		states = 1 << m.NumDims()
	}
	t := &ES{m: m, alg: alg, node: node, ndims: m.NumDims(), posDep: posDep,
		entries: make([][]flow.RouteSet, states), exc: make([]map[topology.NodeID]flow.RouteSet, states)}
	size := ESEntryCount(t.ndims)
	for dl := range t.entries {
		if posDep {
			t.programWithExceptions(dl, size)
			continue
		}
		row := make([]flow.RouteSet, size)
		for s := range row {
			row[s] = sr.RouteSigns(node, s, uint8(dl))
		}
		t.entries[dl] = row
	}
	return t
}

// programWithExceptions builds one state row for a position-dependent
// (fault-aware) algorithm: each sign entry holds the majority route among
// the destinations realizing that sign vector, and every destination
// whose route differs becomes an exception entry — so the overlay stays
// as small as the damage, not as large as the damage's shadow.
// Unrealized sign entries stay empty: the look-ahead lookup of a
// position-dependent table consults the algorithm directly, never the
// sign entries of another position.
func (t *ES) programWithExceptions(dl, size int) {
	type tally struct {
		rs flow.RouteSet
		n  int
	}
	tallies := make([][]tally, size)
	routes := make([]flow.RouteSet, t.m.N())
	for dst := 0; dst < t.m.N(); dst++ {
		rs := t.alg.Route(t.node, topology.NodeID(dst), uint8(dl))
		routes[dst] = rs
		idx := t.m.SignIndex(t.node, topology.NodeID(dst))
		found := false
		for j := range tallies[idx] {
			if tallies[idx][j].rs.Equal(rs) {
				tallies[idx][j].n++
				found = true
				break
			}
		}
		if !found {
			tallies[idx] = append(tallies[idx], tally{rs: rs, n: 1})
		}
	}
	row := make([]flow.RouteSet, size)
	for idx, ts := range tallies {
		if len(ts) == 0 {
			continue
		}
		best := 0
		for j := 1; j < len(ts); j++ {
			// Strict > keeps the first-encountered set on ties.
			if ts[j].n > ts[best].n {
				best = j
			}
		}
		row[idx] = ts[best].rs
	}
	for dst := 0; dst < t.m.N(); dst++ {
		idx := t.m.SignIndex(t.node, topology.NodeID(dst))
		if routes[dst].Equal(row[idx]) {
			continue
		}
		if t.exc[dl] == nil {
			t.exc[dl] = make(map[topology.NodeID]flow.RouteSet)
		}
		t.exc[dl][topology.NodeID(dst)] = routes[dst]
	}
	t.entries[dl] = row
}

// Name implements Table.
func (t *ES) Name() string { return "es" }

// Node implements Table.
func (t *ES) Node() topology.NodeID { return t.node }

// Entries implements Table: 3^n entries regardless of network size, plus
// one exception entry per fault-detoured destination (the paper's storage
// metric stays honest about the cost of degraded operation).
func (t *ES) Entries() int { return len(t.entries[0]) + len(t.exc[0]) }

// Lookup implements Table.
func (t *ES) Lookup(dst topology.NodeID, dateline uint8) flow.RouteSet {
	s := t.state(dateline)
	if t.exc[s] != nil {
		if rs, ok := t.exc[s][dst]; ok {
			return rs
		}
	}
	return t.entries[s][t.m.SignIndex(t.node, dst)]
}

func (t *ES) state(dateline uint8) int {
	if len(t.entries) == 1 {
		return 0
	}
	return int(dateline) % len(t.entries)
}

// LookupAt implements Table. ES table contents are identical at every
// router for sign-expressible algorithms, so the look-ahead result is this
// router's own table indexed by the neighbor-relative signs. This is how
// the paper's technical report implements ES with look-ahead: no extra
// storage, one extra comparator per dimension per candidate.
func (t *ES) LookupAt(p topology.Port, dst topology.NodeID, dateline uint8) flow.RouteSet {
	nb, ok := t.m.Neighbor(t.node, p)
	if !ok {
		panic("table: LookupAt through port without neighbor")
	}
	if t.posDep {
		// Fault-aware tables differ between routers (each holds its own
		// exception overlay), so the look-ahead result comes from the
		// algorithm — the neighbor's programmed state — not from this
		// router's sign entries.
		return t.alg.Route(nb, dst, dateline)
	}
	if t.m.Wrap() {
		// Dateline-dependent masks are recomputed for the neighbor's
		// position; delegate to the algorithm (comparator logic in
		// hardware).
		return t.alg.Route(nb, dst, dateline)
	}
	return t.entries[0][t.m.SignIndex(nb, dst)]
}

// Dump renders the programmed table in the style of the paper's Fig. 7(d):
// one line per sign-vector entry with the candidate ports. Intended for
// cmd/lapses-tables and documentation.
func (t *ES) Dump() string {
	var b strings.Builder
	for idx, rs := range t.entries[0] {
		var signs, ports []string
		for d := 0; d < t.ndims; d++ {
			signs = append(signs, string("-0+"[topology.SignAt(idx, d)+1]))
		}
		for i := 0; i < rs.Len(); i++ {
			ports = append(ports, t.m.PortName(rs.At(i).Port))
		}
		fmt.Fprintf(&b, "(%s) -> %s\n", strings.Join(signs, ","), strings.Join(ports, ","))
	}
	return b.String()
}

// ESEntryCount returns 3^n, the economical-storage table size for an
// n-dimensional network, without building a table (used by the Table 5
// summary).
func ESEntryCount(ndims int) int {
	size := 1
	for i := 0; i < ndims; i++ {
		size *= 3
	}
	return size
}
