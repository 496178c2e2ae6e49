package router

import (
	"math/rand"
	"reflect"
	"testing"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
)

// TestRouterBlockMatchesNew: a router carved out of a block's slabs is
// the router New builds. The centre router of a 3x3 block and a lone
// router for the same node are fed one random flit/credit script; every
// cycle they must emit the same fabric events and show the same
// externally visible state, and the block's other routers — whose storage
// sits on either side in the same slabs — must stay untouched.
func TestRouterBlockMatchesNew(t *testing.T) {
	m := topology.NewMesh(3, 3)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	alg := routing.NewDuato(m, cls)
	tbls := table.BuildAll(table.KindFull, m, alg, cls)
	const node = topology.NodeID(4)
	for _, la := range []bool{false, true} {
		cfg := Config{NumVCs: 4, BufDepth: 6, OutDepth: 2, LookAhead: la}
		block := NewBlock(m, cfg, 0, tbls, selection.NewBlock(selection.LRU, m.N(), 0, 1).Sels).Routers
		hb := &harness{r: &block[node]}
		hb.r.SetFabric(hb)
		hn := newHarness(t, m, node, cfg, alg, selection.New(selection.LRU, 0))
		if hb.r.ID() != hn.r.ID() {
			t.Fatalf("block router %d has id %d", node, hb.r.ID())
		}

		rng := rand.New(rand.NewSource(11))
		type feed struct {
			port topology.Port
			vc   flow.VCID
			fl   [2][]flow.Flit // one copy of the message per router
			next int
		}
		var feeds []feed
		for p := topology.Port(1); int(p) < m.NumPorts(); p++ {
			for v := flow.VCID(0); v < 2; v++ {
				f := feed{port: p, vc: v}
				dst := topology.NodeID(rng.Intn(m.N()))
				length := 1 + rng.Intn(7)
				for k := range f.fl {
					msg := &flow.Message{ID: flow.MessageID(len(feeds)), Dst: dst, Length: length}
					if la {
						msg.Route = alg.Route(node, dst, 0)
					}
					for s := 0; s < length; s++ {
						f.fl[k] = append(f.fl[k], mkFlit(msg, s))
					}
				}
				feeds = append(feeds, f)
			}
		}
		var credits []credit
		seen := 0
		for now := int64(0); now < 300; now++ {
			for i := range feeds {
				f := &feeds[i]
				if f.next < len(f.fl[0]) && hb.r.InputSpace(f.port, f.vc) > 0 && rng.Intn(3) > 0 {
					hb.r.EnqueueFlit(f.port, f.vc, f.fl[0][f.next], now)
					hn.r.EnqueueFlit(f.port, f.vc, f.fl[1][f.next], now)
					f.next++
				}
			}
			for len(credits) > 0 && credits[0].at <= now {
				hb.r.AcceptCredit(credits[0].port, credits[0].vc)
				hn.r.AcceptCredit(credits[0].port, credits[0].vc)
				credits = credits[1:]
			}
			if ob, on := hb.r.Tick(now), hn.r.Tick(now); ob != on {
				t.Fatalf("la=%v cycle %d: occupancy %d (block) vs %d (New)", la, now, ob, on)
			}
			if len(hb.events) != len(hn.events) {
				t.Fatalf("la=%v cycle %d: %d events (block) vs %d (New)", la, now, len(hb.events), len(hn.events))
			}
			for ; seen < len(hb.events); seen++ {
				eb, en := hb.events[seen], hn.events[seen]
				if eb.kind == "send" {
					credits = append(credits, credit{at: now + 4, port: eb.port, vc: eb.vc})
				}
				// The two routers carry twin messages, not shared ones.
				eb.fl.Msg, en.fl.Msg = nil, nil
				if eb != en {
					t.Fatalf("la=%v cycle %d: event %d is %+v (block) vs %+v (New)", la, now, seen, eb, en)
				}
			}
			for p := topology.Port(0); int(p) < m.NumPorts(); p++ {
				sb := [4]int64{int64(hb.r.BusyVCs(p)), int64(hb.r.Credits(p)), int64(hb.r.UseCount(p)), hb.r.LastUsed(p)}
				sn := [4]int64{int64(hn.r.BusyVCs(p)), int64(hn.r.Credits(p)), int64(hn.r.UseCount(p)), hn.r.LastUsed(p)}
				if sb != sn {
					t.Fatalf("la=%v cycle %d port %d: busy/credits/uses/last %v (block) vs %v (New)", la, now, p, sb, sn)
				}
			}
		}
		if seen == 0 || hb.r.Occupancy() != 0 {
			t.Fatalf("la=%v: script moved %d events and left %d flits buffered", la, seen, hb.r.Occupancy())
		}
		fresh := NewBlock(m, cfg, 0, tbls, selection.NewBlock(selection.LRU, m.N(), 0, 1).Sels).Routers
		for i := range block {
			if topology.NodeID(i) != node && !reflect.DeepEqual(&block[i], &fresh[i]) {
				t.Errorf("la=%v: driving router %d changed router %d's state", la, node, i)
			}
		}
	}
}
