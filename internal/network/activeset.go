package network

import (
	"math/bits"
)

// activeSet is the work list at the heart of the active-set cycle kernel:
// a bitmap over component indices (routers or NIs). Components register
// when they gain work and deregister when they go quiescent, so Step
// visits only active components instead of ticking the whole network.
//
// Determinism contract: forEach visits members in ascending index order —
// the same order the pre-active-set kernel ticked all components in — so
// skipping idle components never reorders the work that does happen. The
// callback may drop the component it is visiting (or any other member);
// additions made while iterating take effect the next cycle's iteration
// at the latest (the kernel only adds between phases, never mid-phase).
//
// A bitmap costs one word scan per 64 components per cycle even when the
// network is empty; up to tens of thousands of nodes that is cheaper
// than maintaining a sorted member list (add/drop are single bit ops and
// iteration is a TrailingZeros walk). A two-level summary bitmap would
// take over beyond that scale.
type activeSet struct {
	words []uint64
}

func newActiveSet(n int) activeSet {
	return activeSet{words: make([]uint64, (n+63)/64)}
}

// reset empties the set.
func (s *activeSet) reset() { clear(s.words) }

// add registers a component; adding a member is a no-op.
func (s *activeSet) add(i int) {
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// has reports membership (tests and invariant checks).
func (s *activeSet) has(i int) bool {
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// forEach visits every member in ascending order. The callback returns
// false to deregister the visited component.
func (s *activeSet) forEach(visit func(id int32) bool) {
	for w := range s.words {
		for m := s.words[w]; m != 0; m &= m - 1 {
			id := int32(w<<6 + bits.TrailingZeros64(m))
			if !visit(id) {
				s.words[w] &^= 1 << (uint(id) & 63)
			}
		}
	}
}

// wake is a scheduled reactivation of an idle NI: at the cycle `at` its
// traffic process next produces a message.
type wake struct {
	at   int64
	node int32
}

// wakeHeap is a min-heap of NI wakes ordered by (at, node). Idle NIs park
// here instead of ticking every cycle; Step pops the due entries each
// cycle. An idle NI has exactly one entry (none once its process is
// exhausted), so the heap never exceeds the node count.
type wakeHeap struct {
	h []wake
}

func (w *wakeHeap) len() int  { return len(w.h) }
func (w *wakeHeap) top() wake { return w.h[0] }

func (w *wakeHeap) less(i, j int) bool {
	return w.h[i].at < w.h[j].at || (w.h[i].at == w.h[j].at && w.h[i].node < w.h[j].node)
}

func (w *wakeHeap) push(e wake) {
	w.h = append(w.h, e)
	i := len(w.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !w.less(i, p) {
			break
		}
		w.h[i], w.h[p] = w.h[p], w.h[i]
		i = p
	}
}

func (w *wakeHeap) pop() wake {
	top := w.h[0]
	last := len(w.h) - 1
	w.h[0] = w.h[last]
	w.h = w.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(w.h) && w.less(l, m) {
			m = l
		}
		if r < len(w.h) && w.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		w.h[i], w.h[m] = w.h[m], w.h[i]
		i = m
	}
	return top
}
