// Package table implements the routing-table organizations compared in
// section 5 of the LAPSES paper:
//
//   - Full-table routing: one entry per destination node (Cray T3D/T3E,
//     Sun S3.mp style). Complete flexibility, storage proportional to N.
//   - Meta-table (hierarchical) routing: nodes are partitioned into
//     clusters; a small cluster table routes between clusters and a full
//     sub-table routes within one (SGI SPIDER, Servernet-II style). Both
//     of the paper's Fig. 8 mappings are provided.
//   - Economical storage (ES): the paper's proposal. A 3^n-entry table
//     indexed by the sign vector of the destination offset. Identical
//     routing behaviour to the full table at a tiny fraction of the cost.
//   - Interval routing: one interval of node labels per output port
//     (Transputer C-104 style); deterministic only.
//
// Tables are per-router: Build programs one for a given node from a routing
// algorithm, mirroring how a real router's table RAM would be loaded at
// configuration time. Lookup then never consults the algorithm again (on
// meshes; torus datelines are dynamic state and documented separately).
// LookupAt implements the look-ahead lookup: the candidates valid at the
// neighbor reached through a port, fetched concurrently with arbitration.
package table

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/topology"
)

// Table is a programmed routing table for one router.
type Table interface {
	// Name identifies the organization ("full", "es", "meta-row",
	// "meta-block", "interval").
	Name() string
	// Node returns the router this table was programmed for.
	Node() topology.NodeID
	// Lookup returns the route candidates at this router for dst.
	// dateline is the header's per-dimension wrap-crossing mask (torus
	// only; zero on meshes).
	Lookup(dst topology.NodeID, dateline uint8) flow.RouteSet
	// LookupAt returns the candidates valid at the neighbor reached
	// through port p — the look-ahead lookup. It panics if p has no
	// neighbor, which a router never asks for.
	LookupAt(p topology.Port, dst topology.NodeID, dateline uint8) flow.RouteSet
	// Entries returns the number of table entries this organization
	// stores, the paper's storage-cost metric (Table 5).
	Entries() int
}

// Kind selects a table organization.
type Kind int

const (
	// KindFull is full-table routing: one entry per destination.
	KindFull Kind = iota
	// KindES is the paper's economical storage: 3^n sign-indexed entries.
	KindES
	// KindMetaRow is two-level meta-table routing with the Fig. 8(a)
	// row mapping (minimal flexibility; equivalent to deterministic YX).
	KindMetaRow
	// KindMetaBlock is two-level meta-table routing with the Fig. 8(b)
	// block mapping (maximal flexibility within and between clusters).
	KindMetaBlock
	// KindInterval is interval routing: one label interval per port.
	KindInterval
)

// Kinds lists every table organization, in declaration order.
var Kinds = []Kind{KindFull, KindES, KindMetaRow, KindMetaBlock, KindInterval}

// ParseKind converts an organization name (the String form) back to its
// identifier — the inverse CLI flags and serialized job payloads need.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("table: unknown organization %q", s)
}

func (k Kind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindES:
		return "es"
	case KindMetaRow:
		return "meta-row"
	case KindMetaBlock:
		return "meta-block"
	case KindInterval:
		return "interval"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Build programs a table of the given kind for one router. The algorithm
// defines the routing policy the table encodes; for KindInterval the
// algorithm must be deterministic.
func Build(k Kind, m *topology.Mesh, alg routing.Algorithm, cls routing.Class, node topology.NodeID) Table {
	switch k {
	case KindFull:
		return NewFull(m, alg, node)
	case KindES:
		return NewES(m, alg, node)
	case KindMetaRow:
		return NewMeta(m, alg, cls, node, MapRow)
	case KindMetaBlock:
		return NewMeta(m, alg, cls, node, MapBlock)
	case KindInterval:
		return NewInterval(m, alg, cls, node)
	}
	panic("table: unknown kind")
}

// BuildAll programs the table of every router of m (table i is node i's)
// in one pass spread over GOMAXPROCS goroutines. For a sign-routed
// algorithm one table costs 3^n RouteSigns calls per dateline state and
// no Route call (a full or interval table adds a division-free fill per
// destination); a position-dependent one still evaluates Route for every
// destination, O(N^2) per structure. The pool still pays for the cheap
// pass: 30 cold structures of 8x8 to 32x32 take 21 ms serially and 16 ms
// on two cores. The mesh and the algorithm are read-only and each table
// is written by exactly one goroutine. A panic while programming (an
// algorithm the organization cannot express) is re-raised on the calling
// goroutine, where Build would have raised it.
func BuildAll(k Kind, m *topology.Mesh, alg routing.Algorithm, cls routing.Class) []Table {
	tbls := make([]Table, m.N())
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		failOnce sync.Once
		failure  any
	)
	for w := min(runtime.GOMAXPROCS(0), len(tbls)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					failOnce.Do(func() { failure = r })
				}
			}()
			for {
				id := int(next.Add(1)) - 1
				if id >= len(tbls) {
					return
				}
				tbls[id] = Build(k, m, alg, cls, topology.NodeID(id))
			}
		}()
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
	return tbls
}

// Verify checks the tables BuildAll programs for k against alg itself:
// for every node, destination and dateline state, Lookup bit-equals
// alg.Route, and LookupAt through every port equals the neighbor's own
// Lookup. Meta tables route by their cluster tables (Fig. 8), not by alg,
// so they are held to the look-ahead half only. The error names the first
// mismatch.
func Verify(k Kind, m *topology.Mesh, alg routing.Algorithm, cls routing.Class) error {
	tbls := BuildAll(k, m, alg, cls)
	states := 1
	if m.Wrap() {
		states = 1 << m.NumDims()
	}
	meta := k == KindMetaRow || k == KindMetaBlock
	for i, tbl := range tbls {
		node := topology.NodeID(i)
		for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
			for dl := uint8(0); int(dl) < states; dl++ {
				at := func() string {
					return fmt.Sprintf("table: %s, %s on %s, node %d, dst %d, dateline %d", k, alg.Name(), m, node, dst, dl)
				}
				if got, want := tbl.Lookup(dst, dl), alg.Route(node, dst, dl); !meta && got != want {
					return fmt.Errorf("%s: Lookup %v, Route %v", at(), got, want)
				}
				for p := topology.Port(1); int(p) < m.NumPorts(); p++ {
					nb, ok := m.Neighbor(node, p)
					if !ok {
						continue
					}
					if got, want := tbl.LookupAt(p, dst, dl), tbls[nb].Lookup(dst, dl); got != want {
						return fmt.Errorf("%s: LookupAt %s %v, neighbor's Lookup %v", at(), m.PortName(p), got, want)
					}
				}
			}
		}
	}
	return nil
}

// Full is a full-table implementation: one entry per destination node. An
// entry is an index into dict, the table's distinct route sets, interned
// while programming: a router of a 32x32 mesh answers its 1024
// destinations with 9 distinct sets (53 on an 8x8x8 torus), so an entry
// costs 2 bytes instead of a 26-byte RouteSet. On a torus the VC masks
// depend on the message's dateline state, so entries are precomputed per
// dateline value: idx holds one row of N entries per state.
type Full struct {
	m    *topology.Mesh
	alg  routing.Algorithm
	node topology.NodeID
	// idx[(dateline&mask)*N+dst] indexes dict; mask is the number of
	// dateline states (a power of two; one on a mesh) minus one.
	idx  []uint16
	dict []flow.RouteSet
	mask uint8
}

// NewFull programs a full table for node from alg. A sign-routed
// algorithm's table is its sign rows (3^n route sets per dateline state)
// interned once, and each destination's entry is the id of its sign
// index's set, so no destination costs a Route call; any other algorithm
// is evaluated per destination.
func NewFull(m *topology.Mesh, alg routing.Algorithm, node topology.NodeID) *Full {
	states := 1
	if m.Wrap() {
		states = 1 << m.NumDims()
	}
	n := m.N()
	t := &Full{m: m, alg: alg, node: node, idx: make([]uint16, states*n), mask: uint8(states - 1)}
	ids := make(map[flow.RouteSet]uint16)
	intern := func(rs flow.RouteSet) uint16 {
		id, ok := ids[rs]
		if !ok {
			if len(t.dict) > math.MaxUint16 {
				panic("table: more than 65536 distinct route sets in one full table")
			}
			id = uint16(len(t.dict))
			ids[rs] = id
			t.dict = append(t.dict, rs)
		}
		return id
	}
	if sr, ok := alg.(routing.SignRouted); ok {
		signIDs := make([]uint16, ESEntryCount(m.NumDims()))
		for dl := 0; dl < states; dl++ {
			for s := range signIDs {
				signIDs[s] = intern(sr.RouteSigns(node, s, uint8(dl)))
			}
			row := t.idx[dl*n : (dl+1)*n]
			for dst, s := range m.SignIndices(node) {
				row[dst] = signIDs[s]
			}
		}
	} else {
		// Neighbouring destinations mostly share a set: try the previous
		// entry's before hashing.
		var prev flow.RouteSet
		var prevID uint16
		for dl := 0; dl < states; dl++ {
			row := t.idx[dl*n : (dl+1)*n]
			for dst := range row {
				rs := alg.Route(node, topology.NodeID(dst), uint8(dl))
				if rs != prev || len(t.dict) == 0 {
					prev, prevID = rs, intern(rs)
				}
				row[dst] = prevID
			}
		}
	}
	t.dict = slices.Clone(t.dict) // drop append's spare capacity: there are N of these
	return t
}

// Name implements Table.
func (t *Full) Name() string { return "full" }

// Node implements Table.
func (t *Full) Node() topology.NodeID { return t.node }

// Entries implements Table: one entry per destination node.
func (t *Full) Entries() int { return t.m.N() }

// Lookup implements Table.
func (t *Full) Lookup(dst topology.NodeID, dateline uint8) flow.RouteSet {
	return t.dict[t.idx[int(dateline&t.mask)*t.m.N()+int(dst)]]
}

// LookupAt implements Table. A look-ahead full table stores, per
// destination and candidate port, the neighbor's own entry; programming
// both from the same algorithm makes that identical to evaluating the
// algorithm at the neighbor.
func (t *Full) LookupAt(p topology.Port, dst topology.NodeID, dateline uint8) flow.RouteSet {
	nb, ok := t.m.Neighbor(t.node, p)
	if !ok {
		panic("table: LookupAt through port without neighbor")
	}
	return t.alg.Route(nb, dst, dateline)
}
