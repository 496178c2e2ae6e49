package router

import (
	"fmt"

	"lapses/internal/topology"
)

// requestState is the standing request state of one router (see the
// Router fields of the same names).
type requestState struct {
	xbReq     []uint64
	xbPorts   uint64
	hasCredit uint64
	freeOut   uint64
}

// scanRequests derives the request state the way the stages used to, every
// cycle, before it was maintained: by walking every input VC's phase and
// buffer and every output VC's box, credits and owner. Between cycles no
// flit is in its latch cycle, so the crossbar's candidates are exactly the
// active worms with a flit to offer and room in their box.
func (r *Router) scanRequests() requestState {
	s := requestState{xbReq: make([]uint64, len(r.port))}
	for i := range r.in {
		ivc := &r.in[i]
		if ivc.phase != phaseActive || ivc.buf.empty() || r.out[ivc.outIdx].box.full() {
			continue
		}
		s.xbReq[ivc.outPort] |= 1 << i
		s.xbPorts |= 1 << ivc.outPort
	}
	for j := range r.out {
		ovc := &r.out[j]
		if ovc.credits > 0 || topology.Port(r.portOf[j]) == topology.PortLocal {
			s.hasCredit |= 1 << j
		}
		if ovc.owner < 0 {
			s.freeOut |= 1 << j
		}
	}
	return s
}

// CheckRequestState reports the first difference between the maintained
// request masks and a fresh scan. It exists in test builds only; the
// network-level half of TestRequestStateMatchesScan reaches it through
// network.Router.
func (r *Router) CheckRequestState() error {
	want := r.scanRequests()
	for p := range want.xbReq {
		if r.xbReq[p] != want.xbReq[p] {
			return fmt.Errorf("router %d: xbReq[%d] = %#x, scan finds %#x", r.id, p, r.xbReq[p], want.xbReq[p])
		}
	}
	for _, m := range []struct {
		name      string
		got, want uint64
	}{
		{"xbPorts", r.xbPorts, want.xbPorts},
		{"hasCredit", r.hasCredit, want.hasCredit},
		{"freeOut", r.freeOut, want.freeOut},
	} {
		if m.got != m.want {
			return fmt.Errorf("router %d: %s = %#x, scan finds %#x", r.id, m.name, m.got, m.want)
		}
	}
	return nil
}
