package router

import "lapses/internal/flow"

// fifo is a fixed-capacity ring buffer of flits modeling an input VC
// buffer. Zero value is unusable; call init with a backing slice (routers
// hand out contiguous slabs so one router's buffers share cache lines).
// The head rewinds to slot 0 whenever the buffer drains, so a lightly
// loaded VC keeps touching the same few cache lines instead of marching
// its ring through the whole backing array.
//
// Pipeline readiness (a flit latched at cycle t may not advance before
// t+1) is tracked with a single per-fifo lastPush stamp instead of a
// per-entry field: a physical channel is one flit wide, so at most one
// flit enters a fifo per cycle, pushes carry strictly increasing cycles,
// and therefore only a lone newest entry can still be in its latch cycle.
//
// Flow control (full, space) is defined by the logical depth, while the
// physical slice starts small and grows on demand up to depth: buffers
// only reach their credit limit under contention, so the common case
// keeps the allocated — and GC-scanned — footprint a fraction of the
// worst case without changing behavior.
type fifo struct {
	buf      []flow.Flit
	head     int
	n        int
	depth    int
	lastPush int64
}

func (f *fifo) init(buf []flow.Flit, depth int) { f.buf, f.depth = buf, depth }

func (f *fifo) empty() bool { return f.n == 0 }
func (f *fifo) full() bool  { return f.n == f.depth }
func (f *fifo) len() int    { return f.n }
func (f *fifo) space() int  { return f.depth - f.n }

// headReady reports whether the head flit has cleared its input-latch
// cycle (pushed before now). Only meaningful on a nonempty fifo.
func (f *fifo) headReady(now int64) bool { return f.n > 1 || f.lastPush < now }

// grow quadruples the physical buffer (bounded by depth), unwrapping the
// ring so the queue starts at slot 0 again. Only called when the physical
// ring is full, so the live entries are buf[head:] followed by buf[:head].
// A buffer that outgrows its seed slots is holding a stalled worm and
// mostly goes on to its full depth: from the 4-slot seed a 20-flit buffer
// gets there in two steps instead of three.
func (f *fifo) grow() {
	cap2 := 4 * len(f.buf)
	if cap2 > f.depth {
		cap2 = f.depth
	}
	buf := make([]flow.Flit, cap2)
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.head = 0
	f.buf = buf
}

func (f *fifo) push(fl flow.Flit, now int64) {
	if f.full() {
		panic("router: fifo overflow")
	}
	if f.n == len(f.buf) {
		f.grow()
	}
	i := f.head + f.n
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	f.buf[i] = fl
	f.n++
	f.lastPush = now
}

// peek returns a pointer to the head flit so callers can read the header
// message without copying.
func (f *fifo) peek() *flow.Flit {
	if f.empty() {
		panic("router: peek on empty fifo")
	}
	return &f.buf[f.head]
}

// pop leaves the popped slot's Message pointer in place rather than
// nil-ing it: the store (and its GC write barrier) is pure overhead on
// the hottest path, and the retention it would prevent is bounded by the
// buffer capacity — under Run, stale slots point at pooled messages that
// stay live anyway.
func (f *fifo) pop() flow.Flit {
	if f.empty() {
		panic("router: pop on empty fifo")
	}
	fl := f.buf[f.head]
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
	}
	f.n--
	if f.n == 0 {
		f.head = 0
	}
	return fl
}

// each visits the buffered flits in queue order.
func (f *fifo) each(fn func(*flow.Flit)) {
	for i := 0; i < f.n; i++ {
		j := f.head + i
		if j >= len(f.buf) {
			j -= len(f.buf)
		}
		fn(&f.buf[j])
	}
}

// removeIf drops every buffered flit of a victim message, preserving the
// order of the survivors, and returns how many flits it removed. Fault
// purges use it at the shard barrier; it is never on the per-cycle path.
func (f *fifo) removeIf(victim func(*flow.Message) bool) int {
	if f.n == 0 {
		return 0
	}
	kept := make([]flow.Flit, 0, f.n)
	f.each(func(fl *flow.Flit) {
		if !victim(fl.Msg) {
			kept = append(kept, *fl)
		}
	})
	removed := f.n - len(kept)
	if removed == 0 {
		return 0
	}
	f.head = 0
	f.n = copy(f.buf, kept)
	return removed
}

// outFifo is a fixed-capacity ring of output-buffer flits, with the same
// slab backing, head-rewind policy, and lastPush readiness tracking as
// fifo (the crossbar grants at most one flit per output port per cycle,
// so a box also sees at most one push per cycle).
type outFifo struct {
	buf      []flow.Flit
	head     int
	n        int
	lastPush int64
}

func (f *outFifo) init(buf []flow.Flit) { f.buf = buf }

func (f *outFifo) empty() bool { return f.n == 0 }
func (f *outFifo) full() bool  { return f.n == len(f.buf) }

func (f *outFifo) headReady(now int64) bool { return f.n > 1 || f.lastPush < now }

func (f *outFifo) push(fl flow.Flit, now int64) {
	if f.full() {
		panic("router: output buffer overflow")
	}
	i := f.head + f.n
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	f.buf[i] = fl
	f.n++
	f.lastPush = now
}

func (f *outFifo) peek() *flow.Flit {
	if f.empty() {
		panic("router: peek on empty output buffer")
	}
	return &f.buf[f.head]
}

func (f *outFifo) pop() flow.Flit {
	if f.empty() {
		panic("router: pop on empty output buffer")
	}
	fl := f.buf[f.head]
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
	}
	f.n--
	if f.n == 0 {
		f.head = 0
	}
	return fl
}

// each visits the boxed flits in queue order.
func (f *outFifo) each(fn func(*flow.Flit)) {
	for i := 0; i < f.n; i++ {
		j := f.head + i
		if j >= len(f.buf) {
			j -= len(f.buf)
		}
		fn(&f.buf[j])
	}
}

// removeIf drops every boxed flit of a victim message, preserving the
// order of the survivors, and returns how many flits it removed.
func (f *outFifo) removeIf(victim func(*flow.Message) bool) int {
	if f.n == 0 {
		return 0
	}
	kept := make([]flow.Flit, 0, f.n)
	f.each(func(fl *flow.Flit) {
		if !victim(fl.Msg) {
			kept = append(kept, *fl)
		}
	})
	removed := f.n - len(kept)
	if removed == 0 {
		return 0
	}
	f.head = 0
	f.n = copy(f.buf, kept)
	return removed
}
