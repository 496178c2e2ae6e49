// Package traffic generates the synthetic workloads of the LAPSES study:
// the four paper patterns (uniform, transpose, bit-reversal, perfect
// shuffle) plus standard extensions (bit-complement, tornado, hotspot,
// nearest-neighbor), driven by a per-node Poisson process (exponential
// inter-arrival times, Table 2).
//
// Loads are specified in the paper's normalized form: load 1.0 is the
// per-node flit injection rate that saturates the network bisection under
// uniform traffic (0.25 flits/node/cycle on the 16x16 mesh).
//
// # Bursty sources
//
// The stationary Poisson source can be replaced per run by a two-state
// MMPP on/off process (Burst, NewMMPP): exponentially-distributed ON
// periods of Poisson arrivals at rate/OnFrac alternate with silent OFF
// periods, so the long-run mean rate still equals the configured load
// while arrivals cluster into bursts. OnFrac is the long-run fraction of
// time spent ON (1 degenerates to plain Poisson); MeanOn sets the burst
// time scale in cycles. Both source types implement Source with a
// precomputed next-arrival time (NextAt never draws from the stream), so
// the NI wake heap and idle-cycle fast-forward work unchanged, and both
// draw from the same per-seed replica streams (package lfib) — runs are
// deterministic for either source.
//
// # Hotspot semantics
//
// Hotspot sends HotFrac of each node's messages to one hot node and draws
// the background remainder uniformly over all other nodes *excluding* the
// hot node, so the hot node's received share is exactly HotFrac plus its
// own silence — not HotFrac diluted by a background draw that could also
// land on it. The exclusion preserves the RNG draw count (one background
// draw per message), keeping streams aligned with earlier releases.
package traffic

import (
	"fmt"
	"math/bits"
	"math/rand"
	"unsafe"

	"lapses/internal/lfib"
	"lapses/internal/topology"
)

// Pattern maps a source node to a destination for each generated message.
type Pattern interface {
	// Dest returns the destination for a message from src, or false when
	// the pattern sends nothing from this node (e.g. the diagonal of a
	// transpose). rng is used only by randomized patterns.
	Dest(src topology.NodeID, rng *rand.Rand) (topology.NodeID, bool)
}

// Kind names a traffic pattern.
type Kind int

const (
	// Uniform picks destinations uniformly among all other nodes.
	Uniform Kind = iota
	// Transpose sends (x, y) to (y, x); the diagonal is silent.
	Transpose
	// BitReversal sends node b_{n-1}...b_0 to b_0...b_{n-1}.
	BitReversal
	// Shuffle (perfect shuffle) rotates the node address left by one bit.
	Shuffle
	// BitComplement sends node b to ^b.
	BitComplement
	// Tornado sends k/2-1 hops around each dimension.
	Tornado
	// Hotspot sends a fraction of traffic to one hot node, the rest
	// uniformly.
	Hotspot
	// Neighbor sends to the +X neighbor (edge nodes are silent).
	Neighbor
)

// Kinds lists all patterns; the first four are the paper's.
var Kinds = []Kind{Uniform, Transpose, BitReversal, Shuffle, BitComplement, Tornado, Hotspot, Neighbor}

func (k Kind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case Transpose:
		return "transpose"
	case BitReversal:
		return "bit-reversal"
	case Shuffle:
		return "shuffle"
	case BitComplement:
		return "bit-complement"
	case Tornado:
		return "tornado"
	case Hotspot:
		return "hotspot"
	case Neighbor:
		return "neighbor"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a pattern name to its Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("traffic: unknown pattern %q", s)
}

// MarshalText spells k by name, the form ParseKind reads.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a name with ParseKind.
func (k *Kind) UnmarshalText(b []byte) (err error) {
	*k, err = ParseKind(string(b))
	return err
}

// New builds a pattern for the given topology. Transpose needs a square
// 2-D shape, and the bit permutations (bit-reversal, shuffle, complement)
// a power-of-two node count, as in the literature they are defined over
// address bits; on other shapes they panic. core.Config.Validate rejects
// those shapes, so a panic here is a broken assertion, not bad input.
func New(k Kind, m *topology.Mesh) Pattern {
	switch k {
	case Uniform:
		return uniform{n: m.N()}
	case Transpose:
		return transpose{m: m}
	case BitReversal:
		return bitPattern{n: m.N(), name: "bit-reversal", f: reverseBits}
	case Shuffle:
		return bitPattern{n: m.N(), name: "shuffle", f: shuffleBits}
	case BitComplement:
		return bitPattern{n: m.N(), name: "bit-complement", f: complementBits}
	case Tornado:
		return tornado{m: m}
	case Hotspot:
		return hotspot{n: m.N(), hot: topology.NodeID(m.N() / 2), frac: 0.1}
	case Neighbor:
		return neighbor{m: m}
	}
	panic("traffic: unknown kind")
}

// FilterDest wraps a pattern so destinations rejected by ok are redrawn.
// Randomized patterns redraw until an acceptable destination appears;
// deterministic patterns aimed at a rejected destination fall silent
// (Dest returns false), the same contract as a transpose diagonal. The
// fault subsystem uses this to keep traffic off dead routers.
func FilterDest(p Pattern, ok func(topology.NodeID) bool) Pattern {
	return filtered{inner: p, ok: ok}
}

type filtered struct {
	inner Pattern
	ok    func(topology.NodeID) bool
}

func (f filtered) Dest(src topology.NodeID, rng *rand.Rand) (topology.NodeID, bool) {
	// A deterministic pattern aimed at a rejected node repeats the same
	// draw every time and falls out after the budget; a randomized
	// pattern failing 64 independent redraws requires nearly every
	// destination to be rejected, so the injection-dropping bias this
	// cutoff introduces is negligible (p^64 for rejection probability p).
	for i := 0; i < 64; i++ {
		dst, ok := f.inner.Dest(src, rng)
		if !ok {
			return topology.InvalidNode, false
		}
		if f.ok(dst) {
			return dst, true
		}
	}
	return topology.InvalidNode, false
}

type uniform struct{ n int }

func (u uniform) Dest(src topology.NodeID, rng *rand.Rand) (topology.NodeID, bool) {
	d := topology.NodeID(rng.Intn(u.n - 1))
	if d >= src {
		d++
	}
	return d, true
}

type transpose struct{ m *topology.Mesh }

func (t transpose) Dest(src topology.NodeID, _ *rand.Rand) (topology.NodeID, bool) {
	if t.m.NumDims() != 2 {
		panic("traffic: transpose requires 2 dimensions")
	}
	x, y := t.m.CoordAxis(src, 0), t.m.CoordAxis(src, 1)
	if x == y {
		return src, false
	}
	// Transpose mirrors coordinates; scale when radices differ.
	if t.m.Radix(0) != t.m.Radix(1) {
		panic("traffic: transpose requires a square mesh")
	}
	return t.m.ID(topology.Coord{y, x}), true
}

// bitPattern is a permutation over the bits of the node address.
type bitPattern struct {
	n    int
	name string
	f    func(v, bits int) int
}

func (p bitPattern) Dest(src topology.NodeID, _ *rand.Rand) (topology.NodeID, bool) {
	w := bits.Len(uint(p.n - 1))
	if p.n&(p.n-1) != 0 {
		panic(fmt.Sprintf("traffic: %s requires a power-of-two node count, got %d", p.name, p.n))
	}
	d := topology.NodeID(p.f(int(src), w))
	if d == src {
		return src, false
	}
	return d, true
}

func reverseBits(v, w int) int {
	out := 0
	for i := 0; i < w; i++ {
		out = out<<1 | (v>>i)&1
	}
	return out
}

func shuffleBits(v, w int) int {
	return (v<<1 | v>>(w-1)) & (1<<w - 1)
}

func complementBits(v, w int) int {
	return ^v & (1<<w - 1)
}

type tornado struct{ m *topology.Mesh }

func (t tornado) Dest(src topology.NodeID, _ *rand.Rand) (topology.NodeID, bool) {
	c := t.m.CoordOf(src)
	for d := 0; d < t.m.NumDims(); d++ {
		k := t.m.Radix(d)
		c[d] = (c[d] + (k+1)/2 - 1) % k
	}
	dst := t.m.ID(c)
	if dst == src {
		return src, false
	}
	return dst, true
}

type hotspot struct {
	n    int
	hot  topology.NodeID
	frac float64
}

func (h hotspot) Dest(src topology.NodeID, rng *rand.Rand) (topology.NodeID, bool) {
	if src != h.hot && rng.Float64() < h.frac {
		return h.hot, true
	}
	// Background traffic is uniform over every node except the source and
	// the hot node. Drawing over all other nodes here would hand the hot
	// node an extra (1-frac)/(n-1) of background traffic on top of its
	// dedicated fraction, so the effective hotspot share would not be frac.
	// The draw count stays one Intn per call (plus the one Float64 above
	// for non-hot sources), so the stream stays deterministic per seed.
	if src == h.hot {
		d := topology.NodeID(rng.Intn(h.n - 1))
		if d >= src {
			d++
		}
		return d, true
	}
	if h.n < 3 {
		// Two nodes: the only possible background destination is the hot
		// node itself, so non-hotspot traffic falls silent (like a
		// transpose diagonal).
		return src, false
	}
	d := topology.NodeID(rng.Intn(h.n - 2))
	lo, hi := src, h.hot
	if lo > hi {
		lo, hi = hi, lo
	}
	if d >= lo {
		d++
	}
	if d >= hi {
		d++
	}
	return d, true
}

type neighbor struct{ m *topology.Mesh }

func (nb neighbor) Dest(src topology.NodeID, _ *rand.Rand) (topology.NodeID, bool) {
	d, ok := nb.m.Neighbor(src, topology.PortPlus(0))
	if !ok {
		return src, false
	}
	return d, true
}

// Source is one node's message-generation process: the stationary Poisson
// Injector or the bursty MMPP on/off source. The NI polls Due each active
// cycle and parks on NextAt between arrivals, so both methods must agree:
// NextAt is the first cycle for which Due would report a message, and
// peeking never advances the process.
type Source interface {
	// RNG exposes the source's random stream for destination (and QoS
	// class) draws, so one node's process stays a single deterministic
	// stream.
	RNG() *rand.Rand
	// NextAt returns the cycle of the next arrival, or false when the
	// process never fires again. Peeking does not advance the process.
	NextAt() (int64, bool)
	// Due reports how many messages fire at cycle now, advancing the
	// process.
	Due(now int64) int
}

// Injector drives one node's Poisson message-generation process.
type Injector struct {
	rate float64 // messages per cycle
	rng  *rand.Rand
	next float64
}

// NewInjector returns an injector generating messages at the given rate
// (messages/cycle) with exponential inter-arrival times. A rate of zero
// never fires. The generator is lfib's replica of math/rand's source,
// producing identical streams to rand.NewSource.
func NewInjector(rate float64, seed int64) *Injector {
	return &NewSources(1, rate, nil, seed).injs[0]
}

// reset starts the process over at the given rate, drawing from rng, which
// the caller has freshly seeded.
func (inj *Injector) reset(rate float64, rng *rand.Rand) {
	*inj = Injector{rate: rate, rng: rng}
	if rate > 0 {
		inj.next = rng.ExpFloat64() / rate
	}
}

// Sources is the generation processes of nodes 0..n-1 in one arena: the
// processes themselves (Poisson injectors, or MMPP sources under a Burst),
// their random streams, the generators the streams read and the vectors
// the generators expand into, one slab each. AllocSources sizes the slabs
// by n alone; Reset is the only initialiser — NewSources is the two in a
// row — so a Sources that has been reset is the one NewSources would have
// built, whatever ran in it before.
type Sources struct {
	list  []Source
	fibs  []lfib.Source
	vecs  []lfib.Vec // pointer-free, and written only by a generator that expands
	rngs  []rand.Rand
	injs  []Injector
	mmpps []MMPP
}

// AllocSources returns the storage of n generation processes. It is not
// usable until Reset.
func AllocSources(n int) *Sources {
	s := &Sources{
		list:  make([]Source, n),
		fibs:  make([]lfib.Source, n),
		vecs:  make([]lfib.Vec, n),
		rngs:  make([]rand.Rand, n),
		injs:  make([]Injector, n),
		mmpps: make([]MMPP, n),
	}
	for i := range s.fibs {
		s.fibs[i] = lfib.New(0, &s.vecs[i])
	}
	return s
}

// NewSources returns the generation processes of nodes 0..n-1 — Poisson
// injectors, or MMPP sources when burst is non-nil — node i seeded seed+i,
// exactly as n NewInjector/NewMMPP calls would build them.
func NewSources(n int, rate float64, burst *Burst, seed int64) *Sources {
	s := AllocSources(n)
	s.Reset(rate, burst, seed)
	return s
}

// Reset starts every process over: stream i is reseeded seed+i (it then
// produces exactly what rand.New(rand.NewSource(seed+i)) would), and
// process i restarts on it at the given rate as a Poisson injector, or as
// an MMPP source when burst is non-nil. It writes every field of every
// slab, the unused process slab included, except the vectors: reseeding
// clears the few that expanded in the last run and leaves the rest, which
// are zero, untouched.
func (s *Sources) Reset(rate float64, burst *Burst, seed int64) {
	for i := range s.list {
		s.fibs[i].Seed(seed + int64(i))
		// rand.New only wraps the source; copying its result out keeps
		// the Rand in the slab instead of on the heap by itself.
		s.rngs[i] = *rand.New(&s.fibs[i])
		if burst != nil {
			s.injs[i] = Injector{}
			s.mmpps[i].reset(rate, *burst, &s.rngs[i])
			s.list[i] = &s.mmpps[i]
		} else {
			s.mmpps[i] = MMPP{}
			s.injs[i].reset(rate, &s.rngs[i])
			s.list[i] = &s.injs[i]
		}
	}
}

// At returns node i's process.
func (s *Sources) At(i int) Source { return s.list[i] }

// Bytes returns the size of the slabs.
func (s *Sources) Bytes() int {
	return len(s.list) * int(unsafe.Sizeof(s.list[0])+unsafe.Sizeof(s.fibs[0])+unsafe.Sizeof(s.vecs[0])+
		unsafe.Sizeof(s.rngs[0])+unsafe.Sizeof(s.injs[0])+unsafe.Sizeof(s.mmpps[0]))
}

// RNG exposes the injector's random stream for destination draws so one
// node's process stays a single deterministic stream.
func (inj *Injector) RNG() *rand.Rand { return inj.rng }

// NextAt returns the cycle of the next arrival — the first t for which
// Due(t) would report a message — or false when the process never fires.
// Peeking does not advance the process, so a caller may sleep until the
// returned cycle and observe exactly the arrivals a per-cycle Due poll
// would have seen.
func (inj *Injector) NextAt() (int64, bool) {
	if inj.rate <= 0 {
		return 0, false
	}
	return int64(inj.next), true
}

// Due reports how many messages fire at cycle now, advancing the process.
func (inj *Injector) Due(now int64) int {
	if inj.rate <= 0 {
		return 0
	}
	n := 0
	for inj.next < float64(now+1) {
		n++
		inj.next += inj.rng.ExpFloat64() / inj.rate
	}
	return n
}

// Burst parameterizes the two-state MMPP on/off source: a Markov-
// modulated Poisson process that alternates exponentially-distributed ON
// periods (Poisson arrivals at rate/OnFrac) with silent OFF periods, so
// the long-run mean rate equals the configured rate while arrivals cluster
// into bursts. Smaller OnFrac means burstier traffic at the same offered
// load; MeanOn sets the burst time scale.
type Burst struct {
	// OnFrac is the long-run fraction of time the source spends in the ON
	// state, in (0, 1]. OnFrac 1 degenerates to the stationary Poisson
	// source.
	OnFrac float64 `json:"on_frac"`
	// MeanOn is the mean ON-period duration in cycles (> 0). The mean OFF
	// period follows as MeanOn*(1-OnFrac)/OnFrac.
	MeanOn float64 `json:"mean_on"`
}

// Validate reports parameter errors.
func (b Burst) Validate() error {
	if !(b.OnFrac > 0 && b.OnFrac <= 1) {
		return fmt.Errorf("traffic: Burst.OnFrac %g outside (0, 1]", b.OnFrac)
	}
	if !(b.MeanOn > 0) {
		return fmt.Errorf("traffic: Burst.MeanOn %g must be positive", b.MeanOn)
	}
	return nil
}

// MMPP is the bursty two-state source. It implements Source with the same
// peek/advance contract as Injector: the next arrival is always
// precomputed, so NextAt never draws from the stream.
type MMPP struct {
	onRate float64 // arrival rate while ON (messages/cycle)
	muOn   float64 // mean ON sojourn, cycles
	muOff  float64 // mean OFF sojourn, cycles
	rng    *rand.Rand
	// cur is the process time the generator has advanced to; on/end are
	// the current modulating state and its end time; next is the
	// precomputed next arrival.
	cur, end float64
	on       bool
	next     float64
}

// NewMMPP returns an MMPP source with long-run mean rate `rate`
// (messages/cycle) under the given burst parameters. A rate of zero never
// fires. The random stream is the same lfib replica Injector uses,
// so swapping source types never perturbs other nodes' streams.
func NewMMPP(rate float64, b Burst, seed int64) *MMPP {
	return &NewSources(1, rate, &b, seed).mmpps[0]
}

// reset starts the process over at the given mean rate and burst shape,
// drawing from rng, which the caller has freshly seeded.
func (s *MMPP) reset(rate float64, b Burst, rng *rand.Rand) {
	*s = MMPP{
		onRate: rate / b.OnFrac,
		muOn:   b.MeanOn,
		muOff:  b.MeanOn * (1 - b.OnFrac) / b.OnFrac,
		rng:    rng,
		on:     true,
	}
	if rate > 0 {
		s.end = rng.ExpFloat64() * s.muOn
		s.advance()
	}
}

// advance precomputes the next arrival time, walking the modulating chain
// across state boundaries. Truncating an exponential inter-arrival draw at
// the ON-period boundary and redrawing in the next ON period is exact by
// memorylessness. Each period end rounds its product with float64(...)
// before the sum, so no build may fuse the two into one FMA (Go spec,
// floating-point operators): every architecture draws the same schedule.
func (s *MMPP) advance() {
	for {
		if s.on {
			gap := s.rng.ExpFloat64() / s.onRate
			if s.cur+gap <= s.end {
				s.cur += gap
				s.next = s.cur
				return
			}
			s.cur = s.end
			s.on = false
			if s.muOff <= 0 {
				// OnFrac 1: a single everlasting ON period.
				s.on = true
				s.end = s.cur + float64(s.rng.ExpFloat64()*s.muOn) // no FMA: Go spec
				continue
			}
			s.end = s.cur + float64(s.rng.ExpFloat64()*s.muOff) // no FMA: Go spec
		} else {
			s.cur = s.end
			s.on = true
			s.end = s.cur + float64(s.rng.ExpFloat64()*s.muOn) // no FMA: Go spec
		}
	}
}

// RNG implements Source.
func (s *MMPP) RNG() *rand.Rand { return s.rng }

// NextAt implements Source: the cycle of the precomputed next arrival.
func (s *MMPP) NextAt() (int64, bool) {
	if s.onRate <= 0 {
		return 0, false
	}
	return int64(s.next), true
}

// Due implements Source.
func (s *MMPP) Due(now int64) int {
	if s.onRate <= 0 {
		return 0
	}
	n := 0
	for s.next < float64(now+1) {
		n++
		s.advance()
	}
	return n
}

// MessageRate converts a normalized load into messages/cycle/node for the
// given topology and message length: load 1.0 saturates the bisection
// under uniform traffic.
func MessageRate(m *topology.Mesh, load float64, msgLen int) float64 {
	return load * m.SaturationInjectionRate() / float64(msgLen)
}
