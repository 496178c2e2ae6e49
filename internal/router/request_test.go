package router

import (
	"fmt"

	"lapses/internal/topology"
)

// requestState is the standing state of one router that its stages keep
// current instead of scanning for (see the Router fields of the same
// names).
type requestState struct {
	xbReq     []uint64
	xbPorts   uint64
	hasCredit uint64
	freeOut   uint64
	actSA     uint64
	boxed     uint64
	boxFull   uint64
	occupancy int
}

// scanRequests derives that state the way the stages used to, every cycle,
// before it was maintained: by walking every input VC's phase and buffer
// and every output VC's box, credits and owner. Between cycles no flit is
// in its latch cycle, so the crossbar's candidates are exactly the active
// worms with a flit to offer and room in their box.
func (r *Router) scanRequests() requestState {
	s := requestState{xbReq: make([]uint64, len(r.port))}
	for i := range r.in {
		ivc := &r.in[i]
		s.occupancy += ivc.buf.len()
		if ivc.phase == phaseWaitSA {
			s.actSA |= 1 << i
		}
		if ivc.phase != phaseActive || ivc.buf.empty() || r.out[ivc.outIdx].box.full() {
			continue
		}
		s.xbReq[ivc.outPort] |= 1 << i
		s.xbPorts |= 1 << ivc.outPort
	}
	for j := range r.out {
		ovc := &r.out[j]
		s.occupancy += int(ovc.box.n)
		if !ovc.box.empty() {
			s.boxed |= 1 << j
		}
		if ovc.box.full() {
			s.boxFull |= 1 << j
		}
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
// masks and occupancy and a fresh scan. It exists in test builds only; the
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
		{"actSA", r.actSA, want.actSA},
		{"boxed", r.boxed, want.boxed},
		{"boxFull", r.boxFull, want.boxFull},
		{"occupancy", uint64(r.occupancy), uint64(want.occupancy)},
	} {
		if m.got != m.want {
			return fmt.Errorf("router %d: %s = %#x, scan finds %#x", r.id, m.name, m.got, m.want)
		}
	}
	return nil
}
