package router

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lapses/internal/flow"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
)

// Property-based fuzz: throw random message mixes at one router and check
// the invariants no schedule may violate:
//
//  1. conservation — every flit fed in leaves (sent or delivered);
//  2. per-message ordering — flits of one message leave in sequence;
//  3. wormhole integrity — on one (port, VC), messages never interleave;
//  4. cleanup — all VC state drains back to idle;
//  0. after every cycle, the maintained request masks equal a fresh scan.
func TestQuickRouterInvariants(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cls := routing.Class{NumVCs: 4, EscapeVCs: 1}
	alg := routing.NewDuato(m, cls)
	node := m.ID(topology.Coord{1, 1})

	scenario := func(seed int64, laRaw bool) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{NumVCs: 4, BufDepth: 4 + rng.Intn(8), OutDepth: 1 + rng.Intn(4), LookAhead: laRaw}
		sel := selection.Kind(rng.Intn(5))
		h := &harness{r: New(node, m, cfg, table.Program(table.KindFull, m, alg, cls), sel, seed)}
		h.r.SetFabric(h)
		// Return the credit after a wire round trip.
		h.onSend = func(p topology.Port, v flow.VCID, now int64) {
			pending = append(pending, credit{at: now + 4, port: p, vc: v})
		}

		// Generate 1-6 random messages on distinct input VCs.
		type feed struct {
			port topology.Port
			vc   flow.VCID
			fl   []flow.Flit
			next int
		}
		var feeds []feed
		used := map[int]bool{}
		nMsgs := 1 + rng.Intn(6)
		for i := 0; i < nMsgs; i++ {
			// Arrival ports: the four directions (not local; the NI
			// feeds local VCs, same mechanics).
			port := topology.Port(1 + rng.Intn(4))
			vc := flow.VCID(rng.Intn(4))
			key := int(port)*4 + int(vc)
			if used[key] {
				continue
			}
			used[key] = true
			dst := topology.NodeID(rng.Intn(m.N()))
			length := 1 + rng.Intn(8)
			msg := &flow.Message{ID: flow.MessageID(i), Src: 0, Dst: dst, Length: length}
			var fls []flow.Flit
			for s := 0; s < length; s++ {
				fl := flow.Flit{Msg: msg, Seq: int32(s), Type: flow.TypeFor(s, length)}
				if fl.Type.IsHead() && cfg.LookAhead {
					msg.Route = alg.Route(node, dst, 0)
				}
				fls = append(fls, fl)
			}
			feeds = append(feeds, feed{port: port, vc: vc, fl: fls})
		}

		total := 0
		for _, f := range feeds {
			total += len(f.fl)
		}
		// Drive: each cycle feed at most one flit per stream when the
		// buffer has space (mimicking upstream credit flow), then tick.
		for now := int64(0); now < 800; now++ {
			for i := range feeds {
				f := &feeds[i]
				if f.next < len(f.fl) && h.r.in[h.r.inIdx(f.port, f.vc)].buf.space() > 0 && rng.Intn(3) > 0 {
					h.r.EnqueueFlit(f.port, f.vc, f.fl[f.next], now)
					f.next++
				}
			}
			for len(pending) > 0 && pending[0].at <= now {
				h.r.AcceptCredits(pending[0].port, pending[0].vc, 1)
				pending = pending[1:]
			}
			h.r.Tick(now)
			// 0. The standing request masks equal a full scan (the
			// single-router half of TestRequestStateMatchesScan).
			if err := h.r.CheckRequestState(); err != nil {
				t.Logf("seed %d cycle %d: %v", seed, now, err)
				pending = nil
				return false
			}
		}
		pending = nil

		// 1. Conservation.
		out := 0
		for _, e := range h.events {
			if e.kind == "send" || e.kind == "deliver" {
				out++
			}
		}
		if out != total {
			t.Logf("seed %d: out %d != in %d", seed, out, total)
			return false
		}
		// 2. Ordering per message.
		seq := map[flow.MessageID]int32{}
		for _, e := range h.events {
			if e.kind != "send" && e.kind != "deliver" {
				continue
			}
			if e.fl.Seq != seq[e.fl.Msg.ID] {
				t.Logf("seed %d: msg %d out of order", seed, e.fl.Msg.ID)
				return false
			}
			seq[e.fl.Msg.ID]++
		}
		// 3. Wormhole integrity per (port, vc).
		owner := map[int]flow.MessageID{}
		for _, e := range h.events {
			if e.kind != "send" {
				continue
			}
			key := int(e.port)*16 + int(e.vc)
			if cur, ok := owner[key]; ok && cur != e.fl.Msg.ID {
				t.Logf("seed %d: interleaving on port %d vc %d", seed, e.port, e.vc)
				return false
			}
			owner[key] = e.fl.Msg.ID
			if e.fl.Type.IsTail() {
				delete(owner, key)
			}
		}
		// 4. Cleanup.
		if h.r.Occupancy() != 0 {
			t.Logf("seed %d: occupancy %d", seed, h.r.Occupancy())
			return false
		}
		for p := topology.Port(0); int(p) < m.NumPorts(); p++ {
			if h.r.BusyVCs(p) != 0 {
				t.Logf("seed %d: port %d busy VCs %d", seed, p, h.r.BusyVCs(p))
				return false
			}
		}
		return true
	}
	if err := quick.Check(scenario, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// credit is a pending credit return in the fuzz harness.
type credit struct {
	at   int64
	port topology.Port
	vc   flow.VCID
}

var pending []credit
