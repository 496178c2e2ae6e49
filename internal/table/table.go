// Package table implements the routing-table organizations compared in
// section 5 of the LAPSES paper, as storage models over one shared lookup:
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
// A router's table answers exactly the routing function it was programmed
// from, and Verify proves it for every organization, so the organizations
// differ in simulation only in which function they encode and in what they
// cost (Kind.Entries). Program therefore builds one immutable Routes per
// structure, shared by every router: the kind picks the routing function
// (the configured algorithm, or a meta-table mapping), and a sign-routed
// function on a mesh is precomputed as the one 3^n-entry row every router
// would hold. The look-ahead lookup is the same Lookup at the neighbor.
package table

import (
	"fmt"
	"strings"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/topology"
)

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

// MarshalText spells k by name, the form ParseKind reads.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a name with ParseKind.
func (k *Kind) UnmarshalText(b []byte) (err error) {
	*k, err = ParseKind(string(b))
	return err
}

// Entries returns the number of entries one router's table of this
// organization stores on m, the paper's storage-cost metric (Table 5): N
// for a full table, 3^n for ES, one per cluster plus one per node of the
// local cluster for a meta table (2-D meshes only), one interval per port.
func (k Kind) Entries(m *topology.Mesh) int {
	switch k {
	case KindFull:
		return m.N()
	case KindES:
		return ESEntryCount(m.NumDims())
	case KindMetaRow, KindMetaBlock:
		cw, ch := clusterShape(m, k.mapping())
		return (m.Radix(0)/cw)*(m.Radix(1)/ch) + cw*ch
	case KindInterval:
		return m.NumPorts()
	}
	panic("table: unknown kind")
}

// mapping returns a meta kind's Fig. 8 mapping.
func (k Kind) mapping() MetaMapping {
	if k == KindMetaRow {
		return MapRow
	}
	return MapBlock
}

// ESEntryCount returns 3^n, the economical-storage table size for an
// n-dimensional network.
func ESEntryCount(ndims int) int {
	size := 1
	for i := 0; i < ndims; i++ {
		size *= 3
	}
	return size
}

// Routes is one structure's routing, shared by every router: Lookup(at,
// dst, dateline) is what router at's table answers for dst. It is
// immutable after Program.
type Routes struct {
	m  *topology.Mesh
	fn routing.Algorithm
	// row is the economical-storage row of a sign-routed function on a
	// mesh, indexed by SignIndex: RouteSigns never reads the router there,
	// so one row serves them all. Nil when Lookup evaluates fn — on a
	// torus, whose escape VCs depend on the router's position relative to
	// the dateline, and for position-dependent (fault-aware) and meta-block
	// functions.
	row []flow.RouteSet
}

// Program builds the routes a table of kind k encodes on m: es, full and
// interval tables encode alg itself, meta tables their Fig. 8 mapping over
// it (NewMeta). A sign-routed function on a mesh costs 3^n RouteSigns
// calls and no Route call.
func Program(k Kind, m *topology.Mesh, alg routing.Algorithm, cls routing.Class) *Routes {
	fn := alg
	if k == KindMetaRow || k == KindMetaBlock {
		fn = NewMeta(m, alg, cls, k.mapping())
	}
	r := &Routes{m: m, fn: fn}
	if sr, ok := fn.(routing.SignRouted); ok && !m.Wrap() {
		r.row = make([]flow.RouteSet, ESEntryCount(m.NumDims()))
		for s := range r.row {
			r.row[s] = sr.RouteSigns(0, s, 0)
		}
	}
	return r
}

// Lookup returns the route candidates router at's table holds for dst.
// dateline is the header's per-dimension wrap-crossing mask (torus only;
// zero on meshes). The look-ahead lookup — the candidates valid at the
// neighbor a header is about to enter — is Lookup at that neighbor.
func (r *Routes) Lookup(at, dst topology.NodeID, dateline uint8) flow.RouteSet {
	if r.row != nil {
		return r.row[r.m.SignIndex(at, dst)]
	}
	return r.fn.Route(at, dst, dateline)
}

// Dump renders the economical-storage row in the style of the paper's
// Fig. 7(d): one line per sign-vector entry with the candidate ports. It
// panics unless the routes were programmed from a sign-routed function on
// a mesh. Intended for Fig. 7 (lapses-experiments -exp fig7) and
// documentation.
func (r *Routes) Dump() string {
	if r.row == nil {
		panic(fmt.Sprintf("table: %s on %s has no sign row", r.fn.Name(), r.m))
	}
	var b strings.Builder
	for idx, rs := range r.row {
		var signs, ports []string
		for d := 0; d < r.m.NumDims(); d++ {
			signs = append(signs, string("-0+"[topology.SignAt(idx, d)+1]))
		}
		for i := 0; i < rs.Len(); i++ {
			ports = append(ports, r.m.PortName(rs.At(i).Port))
		}
		fmt.Fprintf(&b, "(%s) -> %s\n", strings.Join(signs, ","), strings.Join(ports, ","))
	}
	return b.String()
}

// Verify checks the routes Program builds for k against the routing
// function k encodes: at every router, destination and dateline state,
// Lookup bit-equals the function's Route, and so, for a sign-routed
// function, does the router's own sign entry RouteSigns(at, SignIndex(at,
// dst), dateline) — the ES table of section 5.2, one shared row on a mesh
// and one per router on a torus. It also holds the function to what the
// organization can express: ES needs a sign-routed or position-dependent
// (fault-aware) function; interval a deterministic function on a mesh whose
// ports each cover one run of row-major labels (Intervals), unless it is
// position-dependent: under faults a structure's lookup is the fault-aware
// function itself. The error names the first failure.
func Verify(k Kind, m *topology.Mesh, alg routing.Algorithm, cls routing.Class) error {
	r := Program(k, m, alg, cls)
	fn := r.fn
	posDep := routing.IsPositionDependent(fn)
	sr, signRouted := fn.(routing.SignRouted)
	switch k {
	case KindES:
		if !signRouted && !posDep {
			return fmt.Errorf("table: %s is not sign-expressible: it is neither sign-routed nor position-dependent", fn.Name())
		}
	case KindInterval:
		if !fn.Deterministic() || m.Wrap() {
			return fmt.Errorf("table: interval routing needs a deterministic algorithm on a mesh, not %s on %s", fn.Name(), m)
		}
		for node := topology.NodeID(0); int(node) < m.N() && !posDep; node++ {
			if _, _, err := Intervals(m, fn, node); err != nil {
				return err
			}
		}
	}
	states := 1
	if m.Wrap() {
		states = 1 << m.NumDims()
	}
	for at := topology.NodeID(0); int(at) < m.N(); at++ {
		for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
			for dl := uint8(0); int(dl) < states; dl++ {
				want := fn.Route(at, dst, dl)
				if got := r.Lookup(at, dst, dl); got != want {
					return fmt.Errorf("table: %s, %s on %s, node %d, dst %d, dateline %d: Lookup %v, Route %v", k, fn.Name(), m, at, dst, dl, got, want)
				}
				if !signRouted {
					continue
				}
				if got := sr.RouteSigns(at, m.SignIndex(at, dst), dl); got != want {
					return fmt.Errorf("table: %s, %s on %s, node %d, dst %d, dateline %d: RouteSigns %v, Route %v", k, fn.Name(), m, at, dst, dl, got, want)
				}
			}
		}
	}
	return nil
}
