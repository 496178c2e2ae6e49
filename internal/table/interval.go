package table

import (
	"fmt"

	"lapses/internal/routing"
	"lapses/internal/topology"
)

// Intervals returns node's interval-routing table (section 5.1.2, Transputer
// C-104 style) for a deterministic routing function: port p covers the
// contiguous run of row-major destination labels lo[p]..hi[p], and lo[p] >
// hi[p] when it covers none. The table size equals the port count,
// independent of network size, but the scheme needs a compatible labeling:
// row-major labels support dimension-order YX (rows are contiguous label
// runs), and Intervals fails if some port's destinations are not one run —
// the paper's observation that interval routing "requires specific
// labeling schemes" and "is not readily receptive to adaptive routing".
func Intervals(m *topology.Mesh, fn routing.Algorithm, node topology.NodeID) (lo, hi []int, err error) {
	lo, hi = make([]int, m.NumPorts()), make([]int, m.NumPorts())
	for p := range lo {
		lo[p], hi[p] = 1, 0 // empty
	}
	for dst := 0; dst < m.N(); dst++ {
		p := fn.Route(node, topology.NodeID(dst), 0).At(0).Port
		switch {
		case lo[p] > hi[p]:
			lo[p], hi[p] = dst, dst
		case dst == hi[p]+1:
			hi[p] = dst
		default:
			return nil, nil, fmt.Errorf("table: %s is not interval-expressible at node %d: port %s covers %d..%d and %d",
				fn.Name(), node, m.PortName(p), lo[p], hi[p], dst)
		}
	}
	return lo, hi, nil
}
