package router

import "lapses/internal/flow"

// run is a maximal stretch of consecutive flits of one message: flits
// seq, seq+1, ..., seq+n-1 of msg. A flit is a pure function of its
// message and sequence number (flow.FlitAt), so the buffers store runs —
// one record per worm segment, whatever its length — and rebuild the flit
// when it leaves. length caches msg.Length so that needs no load from the
// message.
type run struct {
	msg    *flow.Message
	seq    int32
	n      int32
	length int32
}

// start begins the run with flit fl, checking the invariant run-length
// storage rests on: the flit is the one FlitAt builds for its position.
func (r *run) start(fl flow.Flit) {
	length := int32(fl.Msg.Length)
	if fl.Seq < 0 || fl.Seq >= length {
		panic("router: flit sequence number outside its message")
	}
	*r = run{msg: fl.Msg, seq: fl.Seq, n: 1, length: length}
	r.checkType(fl)
}

// extends reports whether fl is the flit that follows the run's last.
func (r *run) extends(fl flow.Flit) bool {
	return r.msg == fl.Msg && r.seq+r.n == fl.Seq && fl.Seq < r.length
}

func (r *run) checkType(fl flow.Flit) {
	if fl.Type != flow.TypeFor(int(fl.Seq), int(r.length)) {
		panic("router: flit type disagrees with its position in the message")
	}
}

// at rebuilds the run's flit i.
func (r *run) at(i int32) flow.Flit {
	return flow.Flit{Msg: r.msg, Seq: r.seq + i, Type: flow.TypeFor(int(r.seq+i), int(r.length))}
}

// take removes and returns the run's first flit. The msg pointer stays in
// a drained run rather than being nil-ed: the store (and its GC write
// barrier) is pure overhead on the hottest path, and the retention it
// would prevent is bounded by the buffer capacity — under Run, stale runs
// point at pooled messages that stay live anyway.
func (r *run) take() flow.Flit {
	fl := r.at(0)
	r.seq++
	r.n--
	return fl
}

// each visits the run's flits in order.
func (r *run) each(fn func(flow.Flit)) {
	for i := int32(0); i < r.n; i++ {
		fn(r.at(i))
	}
}

// fifo is a fixed-capacity queue of flits modeling an input VC buffer,
// stored as a ring of runs. Zero value is unusable; call init with a
// backing slice (routers hand out contiguous slabs so one router's buffers
// share cache lines). The head rewinds to slot 0 whenever the buffer
// drains, so a lightly loaded VC keeps touching the same cache line.
//
// Pipeline readiness (a flit latched at cycle t may not advance before
// t+1) is not tracked here: a physical channel is one flit wide, so at most
// one flit enters a fifo per cycle and only a lone newest entry can still
// be in its latch cycle — the router marks exactly those pushes fresh (see
// Router.fresh).
//
// Flow control (full, space) is defined by the logical depth in flits,
// while the ring starts at two runs — a worm's tail followed by the next
// worm's head is the common worst case — and doubles on demand up to depth
// runs (one-flit messages back to back).
type fifo struct {
	runs  []run
	head  int32 // ring slot of the first live run
	nr    int32 // live runs
	n     int32 // buffered flits
	depth int32
}

func (f *fifo) init(runs []run, depth int) { f.runs, f.depth = runs, int32(depth) }

func (f *fifo) empty() bool { return f.n == 0 }
func (f *fifo) full() bool  { return f.n == f.depth }
func (f *fifo) len() int    { return int(f.n) }
func (f *fifo) space() int  { return int(f.depth - f.n) }

// slot returns ring slot i positions after the head.
func (f *fifo) slot(i int32) *run {
	j := int(f.head + i)
	if j >= len(f.runs) {
		j -= len(f.runs)
	}
	return &f.runs[j]
}

// grow doubles the ring (bounded by depth: every run holds at least one
// flit), unwrapping it so the queue starts at slot 0 again. Only called
// when the ring is full, so the live runs are runs[head:] then runs[:head].
func (f *fifo) grow() {
	runs := make([]run, min(2*len(f.runs), int(f.depth)))
	k := copy(runs, f.runs[f.head:])
	copy(runs[k:], f.runs[:f.head])
	f.head = 0
	f.runs = runs
}

func (f *fifo) push(fl flow.Flit) {
	if f.full() {
		panic("router: fifo overflow")
	}
	f.n++
	if f.nr > 0 {
		if last := f.slot(f.nr - 1); last.extends(fl) {
			last.checkType(fl)
			last.n++
			return
		}
	}
	if int(f.nr) == len(f.runs) {
		f.grow()
	}
	f.slot(f.nr).start(fl)
	f.nr++
}

// peek returns the head flit.
func (f *fifo) peek() flow.Flit {
	if f.empty() {
		panic("router: peek on empty fifo")
	}
	return f.runs[f.head].at(0)
}

func (f *fifo) pop() flow.Flit {
	if f.empty() {
		panic("router: pop on empty fifo")
	}
	r := &f.runs[f.head]
	fl := r.take()
	f.n--
	if r.n == 0 {
		f.nr--
		f.head++
		if f.n == 0 || int(f.head) == len(f.runs) {
			f.head = 0
		}
	}
	return fl
}

// each visits the buffered flits in queue order.
func (f *fifo) each(fn func(flow.Flit)) {
	for i := int32(0); i < f.nr; i++ {
		f.slot(i).each(fn)
	}
}

// removeIf drops every buffered flit of a victim message — whole runs —
// preserving the order of the survivors, and returns how many flits it
// removed. Fault purges use it between cycles; it is never on the
// per-cycle path.
func (f *fifo) removeIf(victim func(*flow.Message) bool) int {
	kept := make([]run, 0, f.nr)
	removed := 0
	for i := int32(0); i < f.nr; i++ {
		if r := f.slot(i); victim(r.msg) {
			removed += int(r.n)
		} else {
			kept = append(kept, *r)
		}
	}
	if removed == 0 {
		return 0
	}
	f.head = 0
	f.nr = int32(copy(f.runs, kept))
	f.n -= int32(removed)
	return removed
}

// outFifo is the output buffer of one output VC: a single run. An output
// VC is owned by one message from the cycle its head wins the VC until its
// tail leaves the box, and the crossbar feeds it that message's flits in
// order, so the box never holds more than one stretch of one message. The
// crossbar grants at most one flit per output port per cycle, so a box also
// sees at most one push per cycle; stageXB reports the boxes whose only
// flit it latched this cycle to stageOUT.
type outFifo struct {
	run
	depth int32
}

func (f *outFifo) init(depth int) { f.depth = int32(depth) }

func (f *outFifo) empty() bool { return f.n == 0 }
func (f *outFifo) full() bool  { return f.n == f.depth }

func (f *outFifo) push(fl flow.Flit) {
	switch {
	case f.full():
		panic("router: output buffer overflow")
	case f.n == 0:
		f.start(fl)
	case f.extends(fl):
		f.checkType(fl)
		f.n++
	default:
		panic("router: output buffer holds another message")
	}
}

func (f *outFifo) pop() flow.Flit {
	if f.empty() {
		panic("router: pop on empty output buffer")
	}
	return f.take()
}

// removeIf drops the boxed flits if they belong to a victim message and
// returns how many flits it removed.
func (f *outFifo) removeIf(victim func(*flow.Message) bool) int {
	if f.n == 0 || !victim(f.msg) {
		return 0
	}
	removed := int(f.n)
	f.n = 0
	return removed
}
