package network

import (
	"sort"

	"lapses/internal/topology"
)

// LinkStat reports the traffic carried by one unidirectional link (or, for
// the local port, one ejection channel) since the simulation began.
type LinkStat struct {
	From topology.NodeID
	Port topology.Port
	// Flits is the cumulative count of flits sent through the port.
	Flits uint64
	// Utilization is Flits divided by elapsed cycles (1.0 = the link
	// carried a flit every cycle). NOTE: these are whole-run cumulative
	// figures — the denominator is every cycle the network has simulated,
	// warmup and drain included, so a long warmup dilutes them. Consumers
	// needing the utilization of a specific window (congestion thresholds,
	// power models) must take a LinkSnapshot at the window's start and
	// read LinkStatsSince, which subtracts the snapshot from both counters
	// and denominator.
	Utilization float64
}

// LinkStats returns the utilization of every link and ejection channel,
// ordered by node then port. The paper's explanation of the meta-table
// result — "unbalanced congestion at cluster-boundary links" — is directly
// observable in the spread of these values.
func (n *Network) LinkStats() []LinkStat {
	return n.linkStats(LinkSnapshot{})
}

// LinkSnapshot freezes the cumulative link counters at one cycle so a
// later LinkStatsSince can report the traffic of just the window between
// the two calls.
type LinkSnapshot struct {
	at    int64
	flits map[linkKey]uint64
}

type linkKey struct {
	node topology.NodeID
	port topology.Port
}

// SnapshotLinks captures the current cumulative counters. Taking one at
// the end of warmup and reading LinkStatsSince after the measured phase
// yields measured-window utilizations undiluted by warmup idle time.
func (n *Network) SnapshotLinks() LinkSnapshot {
	snap := LinkSnapshot{at: n.now, flits: make(map[linkKey]uint64)}
	for _, s := range n.linkStats(LinkSnapshot{}) {
		snap.flits[linkKey{s.From, s.Port}] = s.Flits
	}
	return snap
}

// LinkStatsSince returns per-link stats over the window from the snapshot
// to now: Flits counts only the window's traversals and Utilization
// divides by the window's span instead of the whole run.
func (n *Network) LinkStatsSince(snap LinkSnapshot) []LinkStat {
	return n.linkStats(snap)
}

func (n *Network) linkStats(snap LinkSnapshot) []LinkStat {
	elapsed := float64(n.now - snap.at)
	if elapsed <= 0 {
		elapsed = 1
	}
	var out []LinkStat
	for id := range n.routers {
		r := &n.routers[id]
		for p := 0; p < n.m.NumPorts(); p++ {
			port := topology.Port(p)
			if port != topology.PortLocal {
				if _, ok := n.m.Neighbor(topology.NodeID(id), port); !ok {
					continue
				}
			}
			f := r.UseCount(port)
			if snap.flits != nil {
				f -= snap.flits[linkKey{topology.NodeID(id), port}]
			}
			out = append(out, LinkStat{
				From:        topology.NodeID(id),
				Port:        port,
				Flits:       f,
				Utilization: float64(f) / elapsed,
			})
		}
	}
	return out
}

// LinkImbalance summarizes the spread of link utilization over the
// network's inter-router links: the ratio of the hottest link's traffic to
// the mean over loaded links. Uniformly balanced traffic gives values near
// 1; boundary congestion drives it up.
func (n *Network) LinkImbalance() float64 {
	statsAll := n.LinkStats()
	var loads []float64
	total := 0.0
	for _, s := range statsAll {
		if s.Port == topology.PortLocal || s.Flits == 0 {
			continue
		}
		loads = append(loads, float64(s.Flits))
		total += float64(s.Flits)
	}
	if len(loads) == 0 {
		return 0
	}
	sort.Float64s(loads)
	mean := total / float64(len(loads))
	return loads[len(loads)-1] / mean
}

// TotalLinkFlits sums flit traversals over inter-router links, used by
// conservation tests: it must equal the sum over messages of hops x length
// once the network has drained.
func (n *Network) TotalLinkFlits() uint64 {
	var total uint64
	for _, s := range n.LinkStats() {
		if s.Port == topology.PortLocal {
			continue
		}
		total += s.Flits
	}
	return total
}
