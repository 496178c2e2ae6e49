// Package fault models degraded network topologies: deterministic plans of
// failed links and failed routers that the rest of the stack — routing,
// tables, the network fabric, and the experiment harness — consults to
// steer traffic around the damage. A Plan is immutable after construction
// and is keyed canonically, so simulation memo caches distinguish runs by
// fault content, not pointer identity.
//
// Plans come from two sources: explicit lists (New, or Parse for the CLI
// spec format "12-13,40-41,r77": node-pair link failures plus rN whole-
// router failures), and seeded random generation (Random), which rejects
// samples that would disconnect the live portion of the network so every
// generated plan leaves a routable topology.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"lapses/internal/topology"
)

// Link names one bidirectional link by one of its ends: the link leaving
// Node through Port. A failed link carries no flits and no credits in
// either direction.
type Link struct {
	Node topology.NodeID
	Port topology.Port
}

// Plan is an immutable set of failed links and failed routers over one
// topology. The zero value is not usable; construct with New, Random or
// Parse. A nil *Plan (or one with no failures) means a healthy network.
type Plan struct {
	nodes, ports int
	dims         []int // topology shape the plan was built for
	wrap         bool
	deadLink     []bool // indexed node*ports+port; both directions of a link
	deadNode     []bool
	links        []Link            // canonical positive-direction ends, sorted
	routers      []topology.NodeID // sorted
	key          string
}

// New builds an explicit plan. Links are canonicalized (either direction
// of a link names the same failure) and deduplicated; failing a router
// also fails every link attached to it. Links that do not exist in the
// topology (local ports, mesh edges) and out-of-range routers are errors.
func New(m *topology.Mesh, links []Link, routers []topology.NodeID) (*Plan, error) {
	p := &Plan{
		nodes:    m.N(),
		ports:    m.NumPorts(),
		dims:     append([]int(nil), m.Dims()...),
		wrap:     m.Wrap(),
		deadLink: make([]bool, m.N()*m.NumPorts()),
		deadNode: make([]bool, m.N()),
	}
	for _, r := range routers {
		if !m.Valid(r) {
			return nil, fmt.Errorf("fault: router %d outside %s", r, m)
		}
		if p.deadNode[r] {
			continue
		}
		p.deadNode[r] = true
		p.routers = append(p.routers, r)
		// A dead router's links are dead in both directions.
		for pt := 1; pt < p.ports; pt++ {
			if nb, ok := m.Neighbor(r, topology.Port(pt)); ok {
				p.killLink(m, r, topology.Port(pt), nb)
			}
		}
	}
	for _, l := range links {
		if l.Port == topology.PortLocal {
			return nil, fmt.Errorf("fault: local port of node %d is not a link", l.Node)
		}
		nb, ok := m.Neighbor(l.Node, l.Port)
		if !ok {
			return nil, fmt.Errorf("fault: node %d has no link through port %d", l.Node, l.Port)
		}
		p.killLink(m, l.Node, l.Port, nb)
	}
	// Canonical link list: the positive-direction end of every dead link
	// not already implied by a dead router, sorted by (node, port).
	for id := 0; id < p.nodes; id++ {
		for pt := 1; pt < p.ports; pt++ {
			if !p.deadLink[id*p.ports+pt] || topology.PortSign(topology.Port(pt)) < 0 {
				continue
			}
			nb, ok := m.Neighbor(topology.NodeID(id), topology.Port(pt))
			if !ok {
				continue
			}
			if p.deadNode[id] || p.deadNode[nb] {
				continue
			}
			p.links = append(p.links, Link{Node: topology.NodeID(id), Port: topology.Port(pt)})
		}
	}
	sort.Slice(p.links, func(i, j int) bool {
		if p.links[i].Node != p.links[j].Node {
			return p.links[i].Node < p.links[j].Node
		}
		return p.links[i].Port < p.links[j].Port
	})
	sort.Slice(p.routers, func(i, j int) bool { return p.routers[i] < p.routers[j] })
	p.key = p.buildKey(m)
	return p, nil
}

// killLink marks both directions of the link (n, pt) <-> nb dead.
func (p *Plan) killLink(m *topology.Mesh, n topology.NodeID, pt topology.Port, nb topology.NodeID) {
	p.deadLink[int(n)*p.ports+int(pt)] = true
	p.deadLink[int(nb)*p.ports+int(topology.Opposite(pt))] = true
}

// Random draws a plan with nLinks failed links and nRouters failed routers
// using its own seeded generator, rejecting draws that disconnect the live
// portion of the network (so routing over the degraded graph always
// exists). It errors when no connected plan is found within the retry
// budget — the requested damage is at or beyond the topology's resilience.
func Random(m *topology.Mesh, nLinks, nRouters int, seed int64) (*Plan, error) {
	if nLinks < 0 || nRouters < 0 {
		return nil, fmt.Errorf("fault: negative failure count")
	}
	if nRouters >= m.N() {
		return nil, fmt.Errorf("fault: %d failed routers leave no live network in %s", nRouters, m)
	}
	rng := rand.New(rand.NewSource(seed))
	all, err := linkUniverse(m, nLinks)
	if err != nil {
		return nil, err
	}
	const attempts = 200
	for try := 0; try < attempts; try++ {
		perm := rng.Perm(len(all))
		links := make([]Link, nLinks)
		for i := range links {
			links[i] = all[perm[i]]
		}
		routers := make([]topology.NodeID, 0, nRouters)
		seen := map[topology.NodeID]bool{}
		for len(routers) < nRouters {
			r := topology.NodeID(rng.Intn(m.N()))
			if seen[r] {
				continue
			}
			seen[r] = true
			routers = append(routers, r)
		}
		p, err := New(m, links, routers)
		if err != nil {
			return nil, err
		}
		if p.Connected(m) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fault: no connected plan with %d links + %d routers down in %s after %d draws",
		nLinks, nRouters, m, attempts)
}

// linkUniverse lists every link of m once, by its positive-direction
// end: the sampling universe of Random and RandomSchedule, which must
// hold the nLinks they draw.
func linkUniverse(m *topology.Mesh, nLinks int) ([]Link, error) {
	var all []Link
	for id := 0; id < m.N(); id++ {
		for pt := 1; pt < m.NumPorts(); pt++ {
			port := topology.Port(pt)
			if topology.PortSign(port) < 0 {
				continue
			}
			if _, ok := m.Neighbor(topology.NodeID(id), port); ok {
				all = append(all, Link{Node: topology.NodeID(id), Port: port})
			}
		}
	}
	if nLinks > len(all) {
		return nil, fmt.Errorf("fault: %d failed links exceed the %d links of %s", nLinks, len(all), m)
	}
	return all, nil
}

// Parse reads the CLI plan spec: comma-separated items, each either a link
// "A-B" (adjacent node IDs) or a router "rN". Example: "12-13,40-41,r77".
func Parse(m *topology.Mesh, spec string) (*Plan, error) {
	events, err := parseItems(m, spec, false)
	if err != nil {
		return nil, err
	}
	return planAt(m, events, 0)
}

// parseItems reads the comma-separated items of a plan or schedule spec:
// each a link "A-B" (adjacent node IDs) or a router "rN", and, when
// timed, optionally followed by "@DOWN" or "@DOWN:UP". An untimed item
// fails at cycle 0 and never heals.
func parseItems(m *topology.Mesh, spec string, timed bool) ([]SchedEvent, error) {
	want := `"A-B" or "rN"`
	if timed {
		want += `, optionally "@DOWN[:UP]"`
	}
	var events []SchedEvent
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		elem, timing, hasTiming := strings.Cut(item, "@")
		if hasTiming && !timed {
			return nil, fmt.Errorf("fault: bad item %q (want %s; a static plan is not timed)", item, want)
		}
		ev := SchedEvent{Up: -1}
		if hasTiming {
			down, up, hasUp := strings.Cut(timing, ":")
			d, err := strconv.ParseInt(strings.TrimSpace(down), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad down time in %q: %v", item, err)
			}
			ev.Down = d
			if hasUp {
				u, err := strconv.ParseInt(strings.TrimSpace(up), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: bad up time in %q: %v", item, err)
				}
				ev.Up = u
			}
		}
		elem = strings.TrimSpace(elem)
		if strings.HasPrefix(elem, "r") || strings.HasPrefix(elem, "R") {
			id, err := strconv.Atoi(elem[1:])
			if err != nil {
				return nil, fmt.Errorf("fault: bad router %q: %v", item, err)
			}
			if !m.Valid(topology.NodeID(id)) {
				return nil, fmt.Errorf("fault: router %d outside %s", id, m)
			}
			ev.IsRouter = true
			ev.Router = topology.NodeID(id)
		} else {
			a, b, ok := strings.Cut(elem, "-")
			if !ok {
				return nil, fmt.Errorf("fault: bad item %q (want %s)", item, want)
			}
			na, err := strconv.Atoi(strings.TrimSpace(a))
			if err != nil {
				return nil, fmt.Errorf("fault: bad link %q: %v", item, err)
			}
			nb, err := strconv.Atoi(strings.TrimSpace(b))
			if err != nil {
				return nil, fmt.Errorf("fault: bad link %q: %v", item, err)
			}
			if ev.Link, err = linkBetween(m, topology.NodeID(na), topology.NodeID(nb)); err != nil {
				return nil, err
			}
		}
		events = append(events, ev)
	}
	return events, nil
}

// planAt builds the plan of the events whose element is down at cycle t.
func planAt(m *topology.Mesh, events []SchedEvent, t int64) (*Plan, error) {
	var links []Link
	var routers []topology.NodeID
	for _, e := range events {
		if e.Down > t || (e.Up >= 0 && e.Up <= t) {
			continue
		}
		if e.IsRouter {
			routers = append(routers, e.Router)
		} else {
			links = append(links, e.Link)
		}
	}
	return New(m, links, routers)
}

// linkBetween finds the port connecting two adjacent nodes.
func linkBetween(m *topology.Mesh, a, b topology.NodeID) (Link, error) {
	for pt := 1; pt < m.NumPorts(); pt++ {
		if nb, ok := m.Neighbor(a, topology.Port(pt)); ok && nb == b {
			return Link{Node: a, Port: topology.Port(pt)}, nil
		}
	}
	return Link{}, fmt.Errorf("fault: nodes %d and %d are not adjacent in %s", a, b, m)
}

// LinkDead reports whether the link leaving n through port pt has failed
// (in either direction — link failures are bidirectional). The local port
// is never a link. Nil plans are healthy.
func (p *Plan) LinkDead(n topology.NodeID, pt topology.Port) bool {
	if p == nil || pt == topology.PortLocal {
		return false
	}
	return p.deadLink[int(n)*p.ports+int(pt)]
}

// NodeDead reports whether router n has failed. A dead router's NI injects
// nothing and no live route traverses it.
func (p *Plan) NodeDead(n topology.NodeID) bool {
	return p != nil && p.deadNode[n]
}

// Empty reports whether the plan contains no failures.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.links) == 0 && len(p.routers) == 0)
}

// NumLinks returns the number of explicitly failed links (not counting
// links implied by failed routers).
func (p *Plan) NumLinks() int {
	if p == nil {
		return 0
	}
	return len(p.links)
}

// NumRouters returns the number of failed routers.
func (p *Plan) NumRouters() int {
	if p == nil {
		return 0
	}
	return len(p.routers)
}

// Links returns the canonical failed-link list (positive-direction ends,
// sorted). The caller must not modify it.
func (p *Plan) Links() []Link {
	if p == nil {
		return nil
	}
	return p.links
}

// Routers returns the sorted failed-router list. The caller must not
// modify it.
func (p *Plan) Routers() []topology.NodeID {
	if p == nil {
		return nil
	}
	return p.routers
}

// Fits reports whether the plan was built for exactly m's topology —
// same radices and wrap, not merely the same node count, since a plan's
// (node, port) indices designate different physical links on a reshaped
// network. Configuration validation rejects plans applied elsewhere.
func (p *Plan) Fits(m *topology.Mesh) bool {
	if p == nil {
		return true
	}
	if p.wrap != m.Wrap() || len(p.dims) != m.NumDims() {
		return false
	}
	for d, k := range p.dims {
		if m.Radix(d) != k {
			return false
		}
	}
	return true
}

// Connected reports whether every live router can reach every other over
// live links — the precondition for routing over the degraded topology.
func (p *Plan) Connected(m *topology.Mesh) bool {
	if p.Empty() {
		return true
	}
	return m.SubgraphConnected(
		func(n topology.NodeID) bool { return !p.NodeDead(n) },
		func(n topology.NodeID, pt topology.Port) bool { return !p.LinkDead(n, pt) },
	)
}

// buildKey renders the canonical content key.
func (p *Plan) buildKey(m *topology.Mesh) string {
	var b strings.Builder
	for i, l := range p.links {
		if i > 0 {
			b.WriteByte(';')
		}
		nb, _ := m.Neighbor(l.Node, l.Port)
		fmt.Fprintf(&b, "%d-%d", l.Node, nb)
	}
	for i, r := range p.routers {
		if i > 0 || len(p.links) > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "r%d", r)
	}
	return b.String()
}

// Key returns a canonical content string: two plans over the same topology
// with the same failures have equal keys. Memo caches (core.Config.Key,
// the plumbing cache) append it to their keys so runs differing only in
// faults never share state. The empty plan's key is "".
func (p *Plan) Key() string {
	if p == nil {
		return ""
	}
	return p.key
}

// String renders the plan for logs and CLI output.
func (p *Plan) String() string {
	if p.Empty() {
		return "no faults"
	}
	return fmt.Sprintf("faults[%s]", p.key)
}
