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
// in one pass spread over GOMAXPROCS goroutines. Programming one table
// evaluates the routing function for every destination, so a cold
// structure is O(N^2) Route calls; the mesh and the algorithm are
// read-only and each table is written by exactly one goroutine. A panic
// while programming (an algorithm the organization cannot express) is
// re-raised on the calling goroutine, where Build would have raised it.
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

// NewFull programs a full table for node from alg.
func NewFull(m *topology.Mesh, alg routing.Algorithm, node topology.NodeID) *Full {
	states := 1
	if m.Wrap() {
		states = 1 << m.NumDims()
	}
	n := m.N()
	t := &Full{m: m, alg: alg, node: node, idx: make([]uint16, states*n), mask: uint8(states - 1)}
	ids := make(map[flow.RouteSet]uint16)
	// Neighbouring destinations mostly share a set: try the previous
	// entry's before hashing.
	var prev flow.RouteSet
	var prevID uint16
	for dl := 0; dl < states; dl++ {
		row := t.idx[dl*n : (dl+1)*n]
		for dst := range row {
			rs := alg.Route(node, topology.NodeID(dst), uint8(dl))
			if rs != prev || len(t.dict) == 0 {
				id, ok := ids[rs]
				if !ok {
					if len(t.dict) > math.MaxUint16 {
						panic("table: more than 65536 distinct route sets in one full table")
					}
					id = uint16(len(t.dict))
					ids[rs] = id
					t.dict = append(t.dict, rs)
				}
				prev, prevID = rs, id
			}
			row[dst] = prevID
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
