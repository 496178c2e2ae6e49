package router

import (
	"fmt"

	"lapses/internal/flow"
	"lapses/internal/table"
	"lapses/internal/topology"
)

// This file is the router's half of the fault-schedule machinery: the
// epoch transition the network applies between cycles when a link
// or router fails or heals mid-run. Nothing here runs on the per-cycle
// path — a transition walks the router's full state once, which is cheap
// against the thousands of cycles between transitions.

// SetDeadPorts installs the set of output ports (bit p set) whose link is
// failed in the new epoch. The SA stage and express admission skip dead
// candidates, bounding the damage a one-hop-stale header can do to a
// stall rather than a send into a void.
func (r *Router) SetDeadPorts(mask uint32) { r.deadPorts = mask }

// ScanMessages calls fn once per (message, state site) for every message
// holding state in this router — buffered flits, pipeline state, output
// claims, boxed flits — with ports the bitmask of physical ports that
// state touches. The fault purge uses it to find the victims of a
// topology transition; a message may be reported more than once.
func (r *Router) ScanMessages(fn func(ports uint32, m *flow.Message)) {
	for i := range r.in {
		ivc := &r.in[i]
		bit := uint32(1) << uint(r.portOf[i])
		ivc.buf.each(func(fl flow.Flit) { fn(bit, fl.Msg) })
		if ivc.phase != phaseIdle && ivc.msg != nil {
			ports := bit
			if ivc.phase == phaseActive || ivc.phase == phaseExpress {
				ports |= 1 << uint(ivc.outPort)
			}
			fn(ports, ivc.msg)
		}
	}
	for j := range r.out {
		bit := uint32(1) << uint(r.portOf[j])
		r.out[j].box.each(func(fl flow.Flit) { fn(bit, fl.Msg) })
	}
}

// PurgeMessages removes every flit and claim of the messages victim
// reports, returning the number of flits dropped from this router's
// buffers. Non-victim worms queued behind a purged one restart their
// header pipeline at cycle now, and the crossbar requests are rebuilt from
// what is left. A PROUD header restarted here is looked up under the
// routes in effect; the Reroute of the transition that purged refreshes
// it. Express worm-event claims (owner ==
// expressOwner with no per-flit input VC) are left in place: their
// deferred ReleaseExpress is already scheduled and will free them.
func (r *Router) PurgeMessages(victim func(*flow.Message) bool, now int64) int {
	dropped := 0
	for i := range r.in {
		ivc := &r.in[i]
		n := ivc.buf.removeIf(victim)
		dropped += n
		r.occupancy -= n
		reset := false
		if ivc.phase != phaseIdle && ivc.msg != nil && victim(ivc.msg) {
			reset = true
			if ivc.phase == phaseExpress {
				// A per-flit express transit schedules its release only at
				// the tail, which will never arrive; free the claim here.
				if r.out[ivc.outIdx].owner != expressOwner {
					panic(fmt.Sprintf("router %d: express purge of unclaimed vc", r.id))
				}
				r.releaseVC(int(ivc.outIdx))
				if ivc.outPort != topology.PortLocal {
					r.port[ivc.outPort].expressOut--
				}
			}
			ivc.phase = phaseIdle
			ivc.msg = nil
			r.actSA &^= 1 << i
		}
		if reset && !ivc.buf.empty() {
			// A surviving worm was queued behind the purged one: restart
			// its header.
			hdr := ivc.buf.peek()
			if !hdr.Type.IsHead() {
				panic(fmt.Sprintf("router %d: purge left a non-head flit at a buffer front", r.id))
			}
			r.startHeader(i, ivc, hdr, now)
		}
	}
	for j := range r.out {
		ovc := &r.out[j]
		n := ovc.box.removeIf(victim)
		dropped += n
		r.occupancy -= n
		if n > 0 {
			if ovc.box.empty() {
				r.boxed &^= 1 << j
			}
			r.boxFull &^= 1 << j
		}
		// Reconcile ownership: a pipelined claim is valid only while its
		// input VC is still streaming the worm (phaseActive on this output
		// VC) or the already-traversed tail waits in the box. Purged owners
		// fail both tests.
		if o := ovc.owner; o >= 0 && o != expressOwner {
			live := r.in[o].phase == phaseActive && int(r.in[o].outIdx) == j
			if !live {
				tailBoxed := false
				ovc.box.each(func(fl flow.Flit) {
					if fl.Type.IsTail() {
						tailBoxed = true
					}
				})
				if !tailBoxed {
					r.releaseVC(j)
				}
			}
		}
	}
	// Crossbar requests follow phases, buffers and boxes, all of which the
	// purge just rewrote: recompute them rather than patch them.
	clear(r.xbReq)
	r.xbPorts = 0
	for i := range r.in {
		ivc := &r.in[i]
		if ivc.phase == phaseActive && !ivc.buf.empty() && r.boxFull>>ivc.outIdx&1 == 0 {
			r.request(i, ivc.outPort)
		}
	}
	return dropped
}

// Reroute swaps in the routes of a new epoch, built over its live
// subgraph, and refreshes every piece of routing state computed from the
// previous epoch's. Headers waiting for arbitration get fresh candidates
// from this router's new lookup, and so, in look-ahead mode, do queued
// headers not yet in the pipeline. Look-ahead headers that have won their
// output — still buffered here, or boxed and about to leave — carry
// candidates for the neighbor through that output, recomputed from the
// neighbor's new lookup: a stale set could name only a port the new epoch
// killed, and the header would wait at the neighbor forever. Messages
// already streaming (active or express) keep their claimed output: dead
// claims were purged, and a live stale choice is merely suboptimal for its
// one remaining hop.
func (r *Router) Reroute(routes *table.Routes) {
	r.routes = routes
	for i := range r.in {
		ivc := &r.in[i]
		if ivc.phase == phaseWaitSA && ivc.msg != nil {
			ivc.msg.Route = r.routes.Lookup(r.id, ivc.msg.Dst, ivc.msg.Dateline)
		}
		if r.cfg.LookAhead {
			ivc.buf.each(func(fl flow.Flit) {
				switch {
				case !fl.Type.IsHead():
				case fl.Msg != ivc.msg:
					fl.Msg.Route = r.routes.Lookup(r.id, fl.Msg.Dst, fl.Msg.Dateline)
				case ivc.phase == phaseActive && ivc.outPort != topology.PortLocal:
					fl.Msg.Route = r.lookAhead(ivc.outPort, fl.Msg)
				}
			})
		}
	}
	if !r.cfg.LookAhead {
		return
	}
	for j := range r.out {
		p := topology.Port(r.portOf[j])
		if p == topology.PortLocal {
			continue
		}
		r.out[j].box.each(func(fl flow.Flit) {
			if fl.Type.IsHead() {
				fl.Msg.Route = r.lookAhead(p, fl.Msg)
			}
		})
	}
}

// BufferedFlits returns the number of flits buffered in input (port, vc);
// the credit recomputation after a purge reads it.
func (r *Router) BufferedFlits(p topology.Port, v flow.VCID) int {
	return r.in[r.inIdx(p, v)].buf.len()
}

// SetCredits overwrites the credit count of output (port, vc). The
// network recomputes every counter from global state after a purge — the
// incremental protocol cannot account for destroyed flits.
func (r *Router) SetCredits(p topology.Port, v flow.VCID, n int) {
	if n < 0 || n > r.cfg.BufDepth {
		panic(fmt.Sprintf("router %d: recomputed credits %d for port %d vc %d outside [0,%d]",
			r.id, n, p, v, r.cfg.BufDepth))
	}
	j := r.inIdx(p, v)
	r.out[j].credits = n
	if n > 0 || p == topology.PortLocal {
		r.hasCredit |= 1 << j
	} else {
		r.hasCredit &^= 1 << j
	}
}
