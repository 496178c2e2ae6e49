// Package routing implements the routing algorithms evaluated in the LAPSES
// paper as pure functions from (current node, destination) to a set of
// candidate output ports with virtual-channel classes.
//
// The paper uses Duato's fully adaptive algorithm as its running example:
// adaptive VCs may be claimed on any minimal (productive) direction while a
// reserved escape VC follows deadlock-free dimension-order routing. The
// deterministic baseline is dimension-order XY. Turn-model algorithms
// (North-Last, West-First, Negative-First) are included because section 5.2
// demonstrates that the economical-storage table can be programmed with any
// of them (Fig. 7).
//
// Algorithms are evaluated lazily by routers, eagerly by the table builders
// in package table (once per offset-sign vector, through SignRouted), and
// re-evaluated for neighboring routers by the look-ahead machinery; all
// three must agree, which the tests verify.
package routing

import (
	"fmt"

	"lapses/internal/flow"
	"lapses/internal/topology"
)

// Class describes how the virtual channels of every physical channel are
// partitioned between Duato-style adaptive channels and escape channels.
// EscapeVCs are the lowest-numbered VCs. A deterministic algorithm that is
// deadlock-free on its own (XY, turn models on meshes) uses EscapeVCs=0 and
// treats every VC as freely usable.
type Class struct {
	NumVCs    int
	EscapeVCs int
}

// AdaptiveMask returns the mask of freely usable adaptive VCs.
func (c Class) AdaptiveMask() flow.VCMask {
	return flow.MaskAll(c.NumVCs) &^ flow.MaskAll(c.EscapeVCs)
}

// EscapeMask returns the mask of all escape VCs.
func (c Class) EscapeMask() flow.VCMask { return flow.MaskAll(c.EscapeVCs) }

// EscapeLowMask returns the escape VCs used before crossing a torus
// dateline (the lower half of the escape class; all of it on a mesh).
func (c Class) EscapeLowMask() flow.VCMask {
	if c.EscapeVCs < 2 {
		return c.EscapeMask()
	}
	return flow.MaskAll(c.EscapeVCs / 2)
}

// EscapeHighMask returns the escape VCs used after crossing a torus
// dateline.
func (c Class) EscapeHighMask() flow.VCMask {
	if c.EscapeVCs < 2 {
		return c.EscapeMask()
	}
	return c.EscapeMask() &^ c.EscapeLowMask()
}

// Validate reports configuration errors.
func (c Class) Validate() error {
	if c.NumVCs < 1 || c.NumVCs > 16 {
		return fmt.Errorf("routing: NumVCs %d out of range [1,16]", c.NumVCs)
	}
	if c.EscapeVCs < 0 || c.EscapeVCs > c.NumVCs {
		return fmt.Errorf("routing: EscapeVCs %d out of range [0,%d]", c.EscapeVCs, c.NumVCs)
	}
	return nil
}

// Algorithm is a routing function. Route must be a pure function so that
// tables can be programmed from it and look-ahead routers can evaluate it
// for their neighbors.
//
// The dateline argument is a per-dimension bitmask recording whether the
// message has crossed the wraparound link of each torus dimension; mesh
// algorithms ignore it. Implementations must return at least one candidate
// for every (cur, dst) pair, with the local port as the single candidate
// when cur == dst.
type Algorithm interface {
	Name() string
	Route(cur, dst topology.NodeID, dateline uint8) flow.RouteSet
	// Deterministic reports whether Route always returns one candidate.
	Deterministic() bool
}

// SignRouted marks routing functions that see the destination only
// through its offset-sign vector, which every healthy algorithm here does
// by construction: its Route is RouteSigns of the topology's SignIndex.
// RouteSigns(cur, signs, dateline) is the route from cur to any
// destination whose sign index is signs; on a mesh it never reads cur, so
// one 3^n-entry row serves every router — section 5.2's economical
// storage. Table builders program from it instead of evaluating Route per
// destination.
type SignRouted interface {
	Algorithm
	RouteSigns(cur topology.NodeID, signs int, dateline uint8) flow.RouteSet
}

// ejectSet is the route set delivered messages use: the local port on any VC.
func ejectSet(cls Class) flow.RouteSet {
	var r flow.RouteSet
	r.Add(flow.Candidate{Port: topology.PortLocal, Adaptive: flow.MaskAll(cls.NumVCs)})
	return r
}

// escapeVCMask returns the escape mask for one dimension-order hop in
// dimension d. On a torus the dateline discipline applies: hops strictly
// before the wraparound use the low escape class; the wrap-crossing hop
// itself and every hop after it use the high class. This keeps each ring's
// escape dependency chain acyclic (the wrap link never appears in the low
// class, and no minimal route crosses a dateline twice).
func escapeVCMask(m *topology.Mesh, cls Class, cur topology.NodeID, d, sign int, dateline uint8) flow.VCMask {
	if !m.Wrap() {
		return cls.EscapeMask()
	}
	if dateline&(1<<d) != 0 || wrapCrossing(m, cur, d, sign) {
		return cls.EscapeHighMask()
	}
	return cls.EscapeLowMask()
}

// wrapCrossing reports whether a hop from cur along dimension d in the
// given direction traverses the wraparound link.
func wrapCrossing(m *topology.Mesh, cur topology.NodeID, d, sign int) bool {
	x := m.CoordAxis(cur, d)
	return (sign > 0 && x == m.Radix(d)-1) || (sign < 0 && x == 0)
}

// portToward returns the directional port along dimension d with the given
// nonzero sign.
func portToward(d, sign int) topology.Port {
	if sign > 0 {
		return topology.PortPlus(d)
	}
	return topology.PortMinus(d)
}

// dimOrder implements dimension-order routing over a configurable dimension
// permutation. With order [0 1] on a 2-D mesh it is the paper's XY
// baseline; [1 0] is YX.
type dimOrder struct {
	m     *topology.Mesh
	cls   Class
	order []int
	name  string
}

// NewDimOrder returns deterministic dimension-order routing that resolves
// dimensions in the given order (nil means 0,1,2,...). On a torus the VC
// class is split around the dateline to stay deadlock-free.
func NewDimOrder(m *topology.Mesh, cls Class, order []int) Algorithm {
	ord := normalizeOrder(m, order)
	name := "xy"
	if len(ord) >= 2 && ord[0] == 1 && ord[1] == 0 {
		name = "yx"
	}
	return &dimOrder{m: m, cls: cls, order: ord, name: name}
}

func normalizeOrder(m *topology.Mesh, order []int) []int {
	if order == nil {
		order = make([]int, m.NumDims())
		for i := range order {
			order[i] = i
		}
		return order
	}
	if len(order) != m.NumDims() {
		panic("routing: dimension order length mismatch")
	}
	seen := make([]bool, m.NumDims())
	for _, d := range order {
		if d < 0 || d >= m.NumDims() || seen[d] {
			panic("routing: dimension order is not a permutation")
		}
		seen[d] = true
	}
	out := make([]int, len(order))
	copy(out, order)
	return out
}

func (a *dimOrder) Name() string        { return a.name }
func (a *dimOrder) Deterministic() bool { return true }

func (a *dimOrder) Route(cur, dst topology.NodeID, dateline uint8) flow.RouteSet {
	return a.RouteSigns(cur, a.m.SignIndex(cur, dst), dateline)
}

func (a *dimOrder) RouteSigns(cur topology.NodeID, signs int, dateline uint8) flow.RouteSet {
	var r flow.RouteSet
	for _, d := range a.order {
		s := topology.SignAt(signs, d)
		if s == 0 {
			continue
		}
		mask := flow.MaskAll(a.cls.NumVCs)
		if a.m.Wrap() {
			// Dateline discipline on a torus: the whole VC set is
			// split in half, low VCs strictly before the wrap
			// crossing, high VCs on and after it.
			low := flow.MaskAll(a.cls.NumVCs / 2)
			if dateline&(1<<d) != 0 || wrapCrossing(a.m, cur, d, s) {
				mask = flow.MaskAll(a.cls.NumVCs) &^ low
			} else {
				mask = low
			}
		}
		r.Add(flow.Candidate{Port: portToward(d, s), Adaptive: mask})
		return r
	}
	return ejectSet(a.cls)
}

// duato implements Duato's fully adaptive routing: every minimal direction
// is a candidate on the adaptive VCs, and the dimension-order port
// additionally carries the escape class.
type duato struct {
	m   *topology.Mesh
	cls Class
}

// NewDuato returns Duato's fully adaptive minimal routing. It panics if the
// class has no escape VCs, or fewer than two on a torus, because the
// resulting network could deadlock.
func NewDuato(m *topology.Mesh, cls Class) Algorithm {
	if cls.EscapeVCs < 1 {
		panic("routing: Duato routing requires at least one escape VC")
	}
	if m.Wrap() && cls.EscapeVCs < 2 {
		panic("routing: Duato routing on a torus requires two escape VCs")
	}
	return &duato{m: m, cls: cls}
}

func (a *duato) Name() string        { return "duato" }
func (a *duato) Deterministic() bool { return false }

func (a *duato) Route(cur, dst topology.NodeID, dateline uint8) flow.RouteSet {
	return a.RouteSigns(cur, a.m.SignIndex(cur, dst), dateline)
}

func (a *duato) RouteSigns(cur topology.NodeID, signs int, dateline uint8) flow.RouteSet {
	var r flow.RouteSet
	adaptive := a.cls.AdaptiveMask()
	for d := 0; d < a.m.NumDims(); d++ {
		s := topology.SignAt(signs, d)
		if s == 0 {
			continue
		}
		c := flow.Candidate{Port: portToward(d, s), Adaptive: adaptive}
		if r.Empty() {
			// The first unresolved dimension is the dimension-order
			// (escape) direction.
			c.Escape = escapeVCMask(a.m, a.cls, cur, d, s, dateline)
		}
		r.Add(c)
	}
	if r.Empty() {
		return ejectSet(a.cls)
	}
	return r
}

// turnModel implements the Glass/Ni partially adaptive turn-model
// algorithms for 2-D meshes. They are deadlock-free without VC classes, so
// every VC is freely usable.
type turnModel struct {
	m    *topology.Mesh
	cls  Class
	kind string
}

// NewNorthLast returns North-Last routing (Fig. 7's example): a message may
// only travel north (+Y) once no other direction remains, so while the X
// offset is unresolved and the destination lies north, only the X direction
// is permitted.
func NewNorthLast(m *topology.Mesh, cls Class) Algorithm {
	return newTurnModel(m, cls, "north-last")
}

// NewWestFirst returns West-First routing: all west (-X) hops must be taken
// before any other direction.
func NewWestFirst(m *topology.Mesh, cls Class) Algorithm {
	return newTurnModel(m, cls, "west-first")
}

// NewNegativeFirst returns Negative-First routing: all -X/-Y hops must
// precede any positive hop.
func NewNegativeFirst(m *topology.Mesh, cls Class) Algorithm {
	return newTurnModel(m, cls, "negative-first")
}

func newTurnModel(m *topology.Mesh, cls Class, kind string) Algorithm {
	if m.NumDims() != 2 || m.Wrap() {
		panic("routing: turn-model algorithms are defined for 2-D meshes")
	}
	return &turnModel{m: m, cls: cls, kind: kind}
}

func (a *turnModel) Name() string        { return a.kind }
func (a *turnModel) Deterministic() bool { return false }

func (a *turnModel) Route(cur, dst topology.NodeID, dateline uint8) flow.RouteSet {
	return a.RouteSigns(cur, a.m.SignIndex(cur, dst), dateline)
}

func (a *turnModel) RouteSigns(_ topology.NodeID, signs int, _ uint8) flow.RouteSet {
	sx, sy := topology.SignAt(signs, 0), topology.SignAt(signs, 1)
	if sx == 0 && sy == 0 {
		return ejectSet(a.cls)
	}
	all := flow.MaskAll(a.cls.NumVCs)
	var r flow.RouteSet
	add := func(p topology.Port) { r.Add(flow.Candidate{Port: p, Adaptive: all}) }

	switch a.kind {
	case "north-last":
		// +Y may be used only when it is the sole productive direction.
		if sx != 0 && sy > 0 {
			add(portToward(0, sx))
			return r
		}
		if sx != 0 {
			add(portToward(0, sx))
		}
		if sy != 0 {
			add(portToward(1, sy))
		}
	case "west-first":
		// -X hops come first and exclusively.
		if sx < 0 {
			add(portToward(0, sx))
			return r
		}
		if sx > 0 {
			add(portToward(0, sx))
		}
		if sy != 0 {
			add(portToward(1, sy))
		}
	case "negative-first":
		// While any negative hop remains, only negative directions.
		if sx < 0 || sy < 0 {
			if sx < 0 {
				add(portToward(0, -1))
			}
			if sy < 0 {
				add(portToward(1, -1))
			}
			return r
		}
		if sx > 0 {
			add(portToward(0, 1))
		}
		if sy > 0 {
			add(portToward(1, 1))
		}
	default:
		panic("routing: unknown turn model " + a.kind)
	}
	return r
}
