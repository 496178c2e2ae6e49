package table

import (
	"testing"
	"unsafe"

	"lapses/internal/fault"
	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/topology"
)

// TestFullInternedEqualsRoute: interning changes where a full table keeps
// a route set, never which one it answers with. Every (node, destination,
// dateline state) of every table must be bit-equal to evaluating the
// algorithm — including the unused candidate slots, since the header
// carries the value as is.
func TestFullInternedEqualsRoute(t *testing.T) {
	duatoCls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	detCls := routing.Class{NumVCs: 4, EscapeVCs: 0}
	type tc struct {
		name string
		m    *topology.Mesh
		alg  routing.Algorithm
		dead func(topology.NodeID) bool
	}
	var cases []tc
	for _, k := range []int{8, 16} {
		m := topology.NewMesh(k, k)
		cases = append(cases,
			tc{"xy", m, routing.NewDimOrder(m, detCls, nil), nil},
			tc{"duato", m, routing.NewDuato(m, duatoCls), nil},
			tc{"north-last", m, routing.NewNorthLast(m, detCls), nil})
	}
	torus := topology.NewTorus(4, 4, 4)
	cases = append(cases, tc{"duato", torus, routing.NewDuato(torus, routing.Class{NumVCs: 4, EscapeVCs: 2}), nil})
	faulty := topology.NewMesh(8, 8)
	plan, err := fault.Random(faulty, 5, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := routing.NewFaultDuato(faulty, duatoCls, plan)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"fault-duato", faulty, fd, plan.NodeDead})

	for _, c := range cases {
		states := 1
		if c.m.Wrap() {
			states = 1 << c.m.NumDims()
		}
		distinct := 0
		for i, tbl := range BuildAll(KindFull, c.m, c.alg, duatoCls) {
			node := topology.NodeID(i)
			if c.dead != nil && c.dead(node) {
				continue
			}
			full := tbl.(*Full)
			distinct = max(distinct, len(full.dict))
			for dl := 0; dl < states; dl++ {
				for dst := topology.NodeID(0); int(dst) < c.m.N(); dst++ {
					if c.dead != nil && c.dead(dst) {
						continue
					}
					if got, want := full.Lookup(dst, uint8(dl)), c.alg.Route(node, dst, uint8(dl)); got != want {
						t.Fatalf("%s on %s: node %d dst %d dateline %d: table says %v, algorithm %v",
							c.name, c.m, node, dst, dl, got, want)
					}
				}
			}
		}
		// The point of interning: far fewer sets than entries.
		if entries := states * c.m.N(); distinct == 0 || distinct*4 > entries {
			t.Errorf("%s on %s: a table holds %d distinct route sets for %d entries", c.name, c.m, distinct, entries)
		}
	}
}

// TestFootprintBudget holds a full table's storage to a few bytes per
// entry, so a per-destination field cannot come back unnoticed: a 16x16
// structure is 256 tables of 256 entries, a 32x32 one sixteen times that.
func TestFootprintBudget(t *testing.T) {
	const ceiling = 4.0 // bytes per (dateline state, destination) entry; measured 2.9 and 2.4
	for _, m := range []*topology.Mesh{topology.NewMesh(16, 16), topology.NewTorus(16, 16)} {
		cls := routing.Class{NumVCs: 4, EscapeVCs: 2}
		full := NewFull(m, routing.NewDuato(m, cls), topology.NodeID(m.N()/2+3))
		bytes := len(full.idx)*int(unsafe.Sizeof(full.idx[0])) + cap(full.dict)*int(unsafe.Sizeof(flow.RouteSet{}))
		if per := float64(bytes) / float64(len(full.idx)); per > ceiling {
			t.Errorf("%s: full table spends %.1f bytes per entry (%d entries, %d distinct sets), ceiling %.1f",
				m, per, len(full.idx), len(full.dict), ceiling)
		}
	}
}
