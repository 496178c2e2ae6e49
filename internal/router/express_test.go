package router

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/topology"
)

// fabricEvent is one fabric callback reduced to what the rest of the
// network can observe of it.
type fabricEvent struct {
	kind string // "send", "credit", "deliver"
	port topology.Port
	vc   flow.VCID
	seq  int32
	at   int64
}

// observed flattens a harness recording into per-flit fabric events, sorted
// by cycle: a worm send stands for its flits at link rate behind the head,
// and a batched credit for n single credits the last of which is due at
// its cycle (a batch returns the earlier slots late, never early). Only the
// tail's delivery is kept — it is the one the NI acts on, and the one a
// worm ejection makes. The second result is the cycle from which the output
// VC a transit used is free again, -1 if no release was recorded.
func observed(events []event) (out []fabricEvent, freeFrom int64) {
	freeFrom = -1
	for _, e := range events {
		switch e.kind {
		case "send":
			out = append(out, fabricEvent{"send", e.port, e.vc, e.fl.Seq, e.at})
		case "worm":
			for s := 0; s < e.fl.Msg.Length; s++ {
				out = append(out, fabricEvent{"send", e.port, e.vc, int32(s), e.at + int64(s)})
			}
		case "credit":
			for i := 0; i < e.n; i++ {
				out = append(out, fabricEvent{"credit", e.port, e.vc, 0, e.at - int64(e.n-1-i)})
			}
		case "deliver":
			if e.fl.Type.IsTail() {
				out = append(out, fabricEvent{"deliver", 0, 0, e.fl.Seq, e.at})
			}
		case "release":
			freeFrom = e.at
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.seq < b.seq
	})
	return out, freeFrom
}

// The express path is the pipeline with the stages skipped, not a second
// model of it: a message crossing an empty router must look the same from
// outside — every send, credit and delivery on the same port, VC and cycle,
// and the output VC free again from the same cycle — whether its flits were
// buffered and ticked through the stages, absorbed flit by flit, or absorbed
// as one worm event.
func TestExpressTransitMatchesPipeline(t *testing.T) {
	m := topology.NewMesh(3, 3)
	alg := routing.NewDimOrder(m, routing.Class{NumVCs: 4}, nil)
	node := m.ID(topology.Coord{1, 1})
	in := topology.PortMinus(0)
	const inVC = flow.VCID(1)

	// drive sends one fresh message through one fresh router and returns
	// what its fabric recorded.
	drive := func(la bool, dst topology.NodeID, length int, form string) ([]fabricEvent, int64) {
		cfg := defCfg
		cfg.LookAhead = la
		h := newHarness(t, m, node, cfg, alg, selection.New(selection.StaticXY, 0))
		msg := mkMsg(1, 0, dst, length)
		if la {
			msg.Route = alg.Route(node, dst, 0)
		}
		switch form {
		case "pipeline":
			freeFrom, claimed := int64(-1), false
			for c := int64(0); c < int64(length)+10; c++ {
				if c < int64(length) {
					h.r.EnqueueFlit(in, inVC, mkFlit(msg, int(c)), c)
				}
				h.r.Tick(c)
				// All output VCs start free; the worm's is the one missing.
				free := h.r.freeOut == 1<<len(h.r.out)-1
				if !free {
					claimed = true
				} else if claimed && freeFrom < 0 {
					freeFrom = c + 1 // released by Tick(c): claimable from c+1
				}
			}
			if h.r.Occupancy() > 0 {
				t.Fatalf("pipeline did not drain a %d-flit message", length)
			}
			ev, _ := observed(h.events)
			return ev, freeFrom
		case "worm":
			if !h.r.Arrive(in, inVC, mkFlit(msg, 0), true, 0) {
				t.Fatalf("empty router refused a %d-flit worm", length)
			}
		case "flits":
			for s := 0; s < length; s++ {
				if !h.r.Arrive(in, inVC, mkFlit(msg, s), false, int64(s)) {
					t.Fatalf("empty router refused flit %d of %d", s, length)
				}
			}
		}
		if h.r.Occupancy() > 0 {
			t.Fatal("express transit buffered a flit")
		}
		ev, freeFrom := observed(h.events)
		if dst == node {
			// Ejection holds no link, so express frees the local VC at once.
			return ev, freeFrom
		}
		// A link transit holds its VC until the fabric fires the release.
		if h.r.freeOut == 1<<len(h.r.out)-1 {
			t.Fatal("express link transit released its output VC before the tail left")
		}
		send := ev[0]
		for _, e := range ev {
			if e.kind == "send" {
				send = e
				break
			}
		}
		h.r.ReleaseExpress(send.port, send.vc)
		if h.r.freeOut != 1<<len(h.r.out)-1 {
			t.Fatal("ReleaseExpress left the output VC claimed")
		}
		return ev, freeFrom
	}

	for _, la := range []bool{true, false} {
		for _, dst := range []topology.NodeID{m.ID(topology.Coord{2, 1}), node} {
			for _, length := range []int{1, 5, 20} {
				name := fmt.Sprintf("la=%t/eject=%t/len=%d", la, dst == node, length)
				want, wantFree := drive(la, dst, length, "pipeline")
				if len(want) == 0 {
					t.Fatalf("%s: pipeline recorded nothing", name)
				}
				for _, form := range []string{"worm", "flits"} {
					got, gotFree := drive(la, dst, length, form)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %s transit diverges from the pipeline\n got %v\nwant %v", name, form, got, want)
					}
					// The pipeline frees an ejection's VC with the tail;
					// express never held it past admission (see transit).
					if dst != node && gotFree != wantFree {
						t.Errorf("%s: %s transit frees its output VC from cycle %d, pipeline from %d", name, form, gotFree, wantFree)
					}
				}
			}
		}
	}
}
