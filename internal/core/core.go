// Package core is the public face of the LAPSES library: a declarative
// configuration for a complete simulated interconnect built from the
// paper's three techniques — Look-Ahead pipelining, traffic-sensitive Path
// Selection, and Economical Storage routing tables — plus the substrate
// they run on (wormhole switching, virtual channels, credit flow control,
// Duato's fully adaptive routing).
//
// A Config describes the network, router microarchitecture, routing
// policy, table organization, selection heuristic, and workload; Run
// executes the paper's measurement methodology and returns aggregate
// results. The zero-cost entry point:
//
//	cfg := core.DefaultConfig()           // 16x16 mesh, Table 2 settings
//	cfg.Load = 0.3
//	res, err := core.Run(cfg)
//	fmt.Println(res.AvgLatency)
package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"lapses/internal/bounded"
	"lapses/internal/fault"
	"lapses/internal/flow"
	"lapses/internal/network"
	"lapses/internal/router"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// Alg names a routing algorithm.
type Alg int

const (
	// AlgXY is deterministic dimension-order routing (X first).
	AlgXY Alg = iota
	// AlgYX is deterministic dimension-order routing (Y first).
	AlgYX
	// AlgDuato is Duato's fully adaptive minimal routing with a
	// dimension-order escape channel — the paper's running example.
	AlgDuato
	// AlgNorthLast, AlgWestFirst, AlgNegativeFirst are the Glass/Ni
	// turn-model partially adaptive algorithms (2-D meshes only).
	AlgNorthLast
	AlgWestFirst
	AlgNegativeFirst
)

// Algs lists all algorithm identifiers.
var Algs = []Alg{AlgXY, AlgYX, AlgDuato, AlgNorthLast, AlgWestFirst, AlgNegativeFirst}

func (a Alg) String() string {
	switch a {
	case AlgXY:
		return "xy"
	case AlgYX:
		return "yx"
	case AlgDuato:
		return "duato"
	case AlgNorthLast:
		return "north-last"
	case AlgWestFirst:
		return "west-first"
	case AlgNegativeFirst:
		return "negative-first"
	}
	return fmt.Sprintf("Alg(%d)", int(a))
}

// ParseAlg converts an algorithm name to its identifier.
func ParseAlg(s string) (Alg, error) {
	for _, a := range Algs {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// MarshalText spells a by name, the form ParseAlg reads.
func (a Alg) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText reads a name with ParseAlg.
func (a *Alg) UnmarshalText(b []byte) (err error) {
	*a, err = ParseAlg(string(b))
	return err
}

// Deterministic reports whether the algorithm yields a single path.
func (a Alg) Deterministic() bool { return a == AlgXY || a == AlgYX }

// Config describes one simulation. DefaultConfig returns the paper's
// Table 2 baseline; adjust fields from there. Validate is the contract: a
// config it accepts runs, and no layer below core checks one again.
type Config struct {
	// Dims are the mesh radices (Table 2: 16x16); Torus adds wraparound.
	Dims  []int
	Torus bool

	// Faults, when non-nil and non-empty, degrades the topology: failed
	// links carry nothing, failed routers inject nothing and attract no
	// traffic, and the routing policy is recomputed over the live graph
	// (Duato keeps its adaptive VCs on distance-reducing live ports with an
	// up*/down* escape; every deterministic algorithm becomes the up*/down*
	// function itself, the turns that remain legal around the damage). A
	// static plan is the one-epoch schedule (fault.Static wraps a Plan as
	// one; fault.ParseSchedule reads the CLI spec, whose untimed items make
	// one). Under a timed schedule links and routers fail at given cycles
	// and optionally heal at later ones: at each transition the network
	// destroys every flit committed to dying equipment, swaps in routing
	// tables recomputed for the new epoch's live graph, and restores the
	// credit invariants — traffic in flight elsewhere keeps moving. Run
	// fails with a descriptive error when a plan disconnects the live
	// network. Load stays normalized to the healthy bisection so series
	// over fault counts share an x-axis.
	Faults *fault.Schedule

	// Reliability enables the end-to-end NI retransmission layer: sources
	// hold every message until the destination acknowledges it (acks
	// piggyback on reverse traffic, with pure one-flit acks after
	// network.DefaultAckDelay cycles), retransmit after network.DefaultRTO
	// cycles with exponential backoff, up to network.DefaultMaxAttempts
	// sends, and receivers suppress duplicates — exactly-once delivery over
	// a fabric whose fault transitions drop flits. Without it, messages
	// destroyed by a transition are reported lost (Result.DroppedMessages).
	Reliability bool

	// LookAhead selects LA-PROUD (4-stage) over PROUD (5-stage).
	LookAhead bool
	// Algorithm, Table and Selection pick the routing policy, the table
	// organization storing it, and the path-selection heuristic.
	Algorithm Alg
	Table     table.Kind
	Selection selection.Kind

	// Pattern and Load define the workload: Load is normalized so 1.0
	// saturates the bisection under uniform traffic. MsgLen is in flits
	// (Table 2: 20).
	Pattern traffic.Kind
	Load    float64
	MsgLen  int
	// Burst, when non-nil, makes every node's source a bursty two-state
	// MMPP on/off process at the same mean rate (traffic.Burst): arrivals
	// cluster into ON periods while the offered load stays Load. Nil (the
	// default) keeps the stationary Poisson source bit-identical to
	// previous releases. Ignored for trace workloads.
	Burst *traffic.Burst
	// QoS, when nonzero, enables two-class traffic with per-class VC
	// reservation: each generated message is high-class with probability
	// QoS, in (0, 1], and the top ResvVCs adaptive VC of every physical
	// channel is reserved for high-class traffic (escape VCs stay shared,
	// preserving deadlock freedom). 0 keeps single-class traffic. The class
	// draw consumes one extra variate from the node's generation stream per
	// message, gated on QoS, so single-class runs draw nothing extra.
	QoS float64
	// Trace, when non-nil, replaces Pattern/Load with trace-driven
	// injection (application workloads; see traffic.Trace). Warmup +
	// Measure must not exceed the trace's message count.
	Trace *traffic.Trace

	// Warmup messages are excluded from statistics; Measure messages are
	// recorded (section 2.2: 10000 and 400000).
	Warmup  int
	Measure int
	// MaxCycles is the cycle budget, a saturation guard (0 derives one
	// from the offered load, network.CycleBudget); the other guard, a
	// mean latency above 5000 cycles, is the network kernel's constant.
	MaxCycles int64

	// Seed makes runs reproducible.
	Seed int64

	// EventMode switches the run to event-driven execution: flits landing
	// on quiescent routers transit on an O(1)-per-flit express path with
	// send and credit times computed from the pipeline's timing constants,
	// while routers carrying buffered traffic fall back to the unchanged
	// cycle-accurate pipeline. Uncontended per-message latency is exact,
	// but event mode is not bit-identical to cycle mode and its mean
	// latency is biased low: 1.65-6.03 cycles below cycle mode in 24 of 24
	// seeded runs, 11 of them outside the combined 95% CI, and -1.5% to
	// -3.9% on a 16x16 LA-PROUD mesh. So only lapses-sim -events and the
	// benchmark's kernel-event workload use it; experiments and served
	// points run on the golden-pinned cycle-accurate kernel. Runs are
	// deterministic for a fixed configuration. See README "Execution modes".
	EventMode bool
}

// DefaultConfig returns the paper's simulation parameters (Table 2) with
// the LAPSES router (look-ahead + LRU selection + economical storage) and
// a reduced default sample size: 2000 warm-up and 30000 measured messages,
// where the paper measures 400000 after 10000 (section 2.2).
func DefaultConfig() Config {
	return Config{
		Dims:      []int{16, 16},
		LookAhead: true,
		Algorithm: AlgDuato,
		Table:     table.KindES,
		Selection: selection.LRU,
		Pattern:   traffic.Uniform,
		Load:      0.2,
		MsgLen:    20,
		Warmup:    2000,
		Measure:   30000,
		Seed:      1,
	}
}

// VCs, BufDepth, OutDepth and LinkDelay are Table 2's router: virtual
// channels per physical channel, input and output buffer depths in flits,
// and link delay in cycles. ResvVCs is how many of the highest-numbered
// adaptive VCs a QoS run reserves for high-class messages; escape VCs are
// the lowest-numbered and never reserved, and every algorithm leaves at
// least two adaptive VCs, so one unreserved VC remains. Every run uses
// these. The link delay is the network kernel's constant; the router takes
// the others as parameters only so that its own tests can vary them.
const (
	VCs       = 4
	BufDepth  = 20
	OutDepth  = 4
	LinkDelay = network.LinkDelay
	ResvVCs   = 1
)

// Mesh materializes the topology.
func (c Config) Mesh() *topology.Mesh { return topology.New(c.Torus, c.Dims...) }

// SemanticsVersion names the simulator semantics a stored Result was
// computed under. The result store keeps each version's entries apart
// and reads no other version's, so a change that moves any answer bumps
// it: every earlier answer is then a miss that re-simulates, never a
// stale hit. TestGoldenDigests holds it to the golden fixtures.
const SemanticsVersion = 3

// canonical maps c to the representative of its class of configs that
// provably produce one Result, which Key and structureKey read. es, full
// and interval tables program the same routes (table.Program ignores
// which of the three it is given), so they key as es.
func (c Config) canonical() Config {
	if c.Table == table.KindFull || c.Table == table.KindInterval {
		c.Table = table.KindES
	}
	return c
}

// Key returns a string that identifies the configuration exactly: two
// configs with equal keys produce bit-identical Results from Run, and
// configs that provably do share one key (canonical). It is the
// memo-cache key used by internal/sweep and the result store's address
// within a SemanticsVersion. Floats are keyed by their bit patterns in
// hex, so no two distinct loads ever collide; a Trace is keyed by its
// content digest.
func (c Config) Key() string {
	c = c.canonical()
	var buf [256]byte
	b := append(buf[:0], "d["...)
	for i, k := range c.Dims {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(k), 10)
	}
	b = strconv.AppendBool(append(b, "],t"...), c.Torus)
	b = strconv.AppendBool(append(b, ",la"...), c.LookAhead)
	b = keyInt(b, ",a", int64(c.Algorithm))
	b = keyInt(b, ",tb", int64(c.Table))
	b = keyInt(b, ",s", int64(c.Selection))
	b = keyInt(b, ",p", int64(c.Pattern))
	b = keyBits(b, ",ld", c.Load)
	b = keyInt(b, ",ml", int64(c.MsgLen))
	if c.Trace != nil {
		b = append(append(b, ",tr"...), c.Trace.Digest()...)
	}
	b = keyInt(b, ",w", int64(c.Warmup))
	b = keyInt(b, ",m", int64(c.Measure))
	b = keyInt(b, ",mc", c.MaxCycles)
	b = keyInt(b, ",sd", c.Seed)
	// Event mode changes observed results (it is not bit-identical, and
	// its latency runs low), so it always keys separately from cycle mode.
	if c.EventMode {
		b = append(b, ",ev"...)
	}
	// Bursty sources and QoS classes change the workload, so they key by
	// their parameters; the defaults (nil, 0) add nothing.
	if c.Burst != nil {
		b = keyBits(b, ",mm[", c.Burst.OnFrac)
		b = append(keyBits(b, ",", c.Burst.MeanOn), ']')
	}
	if c.QoS != 0 {
		b = append(keyBits(b, ",q[", c.QoS), ']')
	}
	// Damage is keyed by canonical content, so equal damage from different
	// values memoizes together — "12-13" spelled as a plan or as an
	// untimed schedule shares a cache line — and any difference in damage
	// never shares one. A timed schedule's key holds an "@" and a static
	// plan's never does; no damage adds nothing: a zero-fault config is
	// the same simulation either way.
	if !c.Faults.Empty() {
		b = append(append(append(b, ",f["...), c.Faults.Key()...), ']')
	}
	// The reliability layer changes delivery behavior (retransmitted
	// traffic competes with measured traffic), so it always keys apart.
	if c.Reliability {
		b = append(b, ",rel"...)
	}
	return string(b)
}

// keyInt appends a key term: its tag, then v in decimal.
func keyInt(b []byte, tag string, v int64) []byte {
	return strconv.AppendInt(append(b, tag...), v, 10)
}

// keyBits appends a key term: its tag, then x's bit pattern in hex.
func keyBits(b []byte, tag string, x float64) []byte {
	return strconv.AppendUint(append(b, tag...), math.Float64bits(x), 16)
}

// class returns the VC partition, and is the one place that decides it:
// Duato routing reserves one escape VC on a mesh and two on a torus (one
// each side of the dateline); deterministic and turn-model algorithms are
// deadlock-free without escape channels.
func (c Config) class() routing.Class {
	esc := 0
	if c.Algorithm == AlgDuato {
		esc = 1
		if c.Torus {
			esc = 2
		}
	}
	return routing.Class{NumVCs: VCs, EscapeVCs: esc}
}

// Routing returns the routing function and the VC partition c's tables are
// programmed from (the first epoch's, under a fault schedule).
func (c Config) Routing() (routing.Algorithm, routing.Class, error) {
	cls := c.class()
	alg, err := c.algorithm(c.Mesh(), cls, c.Faults.Plan(0))
	return alg, cls, err
}

// algorithm materializes the routing function of one fault epoch, whose
// plan is given. Under any damage the healthy algorithms are replaced by
// their degraded-graph equivalents in every epoch, a schedule's healthy
// epochs included, so consecutive epochs differ only in the damage they
// avoid, never in routing family: Duato keeps fully adaptive VCs over the
// live minimal directions with an up*/down* escape channel, and every
// deterministic or turn-model algorithm becomes deterministic up*/down*
// routing (the turns that remain deadlock-free around arbitrary damage).
// Construction fails with a descriptive error when the plan disconnects
// the live network.
func (c Config) algorithm(m *topology.Mesh, cls routing.Class, plan *fault.Plan) (routing.Algorithm, error) {
	if !c.Faults.Empty() {
		if c.Algorithm == AlgDuato {
			return routing.NewFaultDuato(m, cls, plan)
		}
		return routing.NewFaultDimOrder(m, cls, plan)
	}
	switch c.Algorithm {
	case AlgXY:
		return routing.NewDimOrder(m, cls, nil), nil
	case AlgYX:
		return routing.NewDimOrder(m, cls, []int{1, 0}), nil
	case AlgDuato:
		return routing.NewDuato(m, cls), nil
	case AlgNorthLast:
		return routing.NewNorthLast(m, cls), nil
	case AlgWestFirst:
		return routing.NewWestFirst(m, cls), nil
	case AlgNegativeFirst:
		return routing.NewNegativeFirst(m, cls), nil
	}
	panic("core: unknown algorithm")
}

// maxDims is the most dimensions a router can serve: it has a local port
// and two per dimension, VCs input VCs each, and at most
// router.MaxInputVCs input VCs in all.
const maxDims = (router.MaxInputVCs/VCs - 1) / 2

// Validate reports configuration errors without building the network, each
// naming its field. It is the only validator: network, router, routing and
// traffic trust the configuration Run builds from a validated one.
func (c Config) Validate() error {
	if err := ValidateDims(c.Dims); err != nil {
		return err
	}
	if c.MsgLen < 1 {
		return fmt.Errorf("core: MsgLen %d < 1", c.MsgLen)
	}
	// router.NewBlock panics in its arbiters beyond MaxInputVCs.
	if len(c.Dims) > maxDims {
		return fmt.Errorf("core: Dims %v has %d dimensions; a router holds at most %d input VCs, %d per port, so at most %d dimensions",
			c.Dims, len(c.Dims), router.MaxInputVCs, VCs, maxDims)
	}
	// An adaptive route set holds one candidate per dimension
	// (flow.RouteSet panics beyond flow.MaxCandidates); the deterministic
	// algorithms return one candidate whatever the dimensions.
	if c.Algorithm == AlgDuato && len(c.Dims) > flow.MaxCandidates {
		return fmt.Errorf("core: %s routing is adaptive in every dimension and handles at most %d dimensions, not the %d of Dims %v; use xy",
			c.Algorithm, flow.MaxCandidates, len(c.Dims), c.Dims)
	}
	// A node injects at most one flit a cycle, so it cannot offer more than
	// one message a cycle (traffic.Injector would draw forever).
	if !(c.Load >= 0) {
		return fmt.Errorf("core: Load %g must be 0 or positive", c.Load)
	}
	m := c.Mesh()
	rate := traffic.MessageRate(m, c.Load, c.MsgLen)
	if rate > 1 {
		return fmt.Errorf("core: Load %g offers more than one %d-flit message per node per cycle on %s; Load is at most %g",
			c.Load, c.MsgLen, m, float64(c.MsgLen)/m.SaturationInjectionRate())
	}
	if c.MaxCycles < 0 {
		return fmt.Errorf("core: MaxCycles %d < 0", c.MaxCycles)
	}
	// With nothing injected no message ever completes the measurement, and
	// there is no offered load to derive a cycle budget from
	// (network.Run panics without one).
	if c.Load == 0 && c.Trace == nil && c.MaxCycles <= 0 {
		return fmt.Errorf("core: Load 0 needs a Trace or MaxCycles > 0: no message would ever end the run")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("core: Warmup %d < 0", c.Warmup)
	}
	// Transpose mirrors two equal coordinates and the bit permutations
	// permute address bits (traffic's patterns panic on other shapes).
	if c.Trace == nil {
		switch c.Pattern {
		case traffic.Transpose:
			if len(c.Dims) != 2 || c.Dims[0] != c.Dims[1] {
				return fmt.Errorf("core: Pattern transpose needs a square 2-D shape, not %s", c.Mesh())
			}
		case traffic.BitReversal, traffic.Shuffle, traffic.BitComplement:
			n := 1
			for _, k := range c.Dims {
				n *= k
			}
			if n&(n-1) != 0 {
				return fmt.Errorf("core: Pattern %s needs a power-of-two node count, not the %d of %s", c.Pattern, n, c.Mesh())
			}
		}
	}
	if c.Measure <= 0 {
		return fmt.Errorf("core: Measure must be positive")
	}
	if c.Warmup > math.MaxInt-c.Measure {
		return fmt.Errorf("core: Warmup %d + Measure %d overflows an int", c.Warmup, c.Measure)
	}
	// Run derives a budget from the offered load unless given one; a load
	// so low that the budget overflows would end the run at once.
	if c.Trace == nil && c.MaxCycles == 0 {
		if _, ok := network.CycleBudget(rate*float64(m.N()), c.Warmup+c.Measure); !ok {
			return fmt.Errorf("core: Load %g is too low to derive a cycle budget for %d messages on %s; set MaxCycles",
				c.Load, c.Warmup+c.Measure, m)
		}
	}
	if c.Trace != nil && c.Warmup+c.Measure > c.Trace.Total() {
		return fmt.Errorf("core: warmup+measure (%d) exceeds trace messages (%d)",
			c.Warmup+c.Measure, c.Trace.Total())
	}
	if c.Burst != nil {
		if c.Trace != nil {
			return fmt.Errorf("core: Burst is ignored under trace workloads; unset one")
		}
		if err := c.Burst.Validate(); err != nil {
			return err
		}
		// While ON the source offers the mean rate over OnFrac, which is
		// bounded like the mean rate (traffic.MMPP would draw forever).
		if rate/c.Burst.OnFrac > 1 {
			return fmt.Errorf("core: Burst.OnFrac %g offers %g messages per node per cycle while ON at Load %g; a node injects at most one, so OnFrac is at least %g",
				c.Burst.OnFrac, rate/c.Burst.OnFrac, c.Load, rate)
		}
	}
	if !(c.QoS >= 0 && c.QoS <= 1) {
		return fmt.Errorf("core: QoS %g, the high-class fraction, is outside [0,1] (0 = single-class)", c.QoS)
	}
	// The healthy yx and turn-model routing functions exist in two
	// dimensions only (routing.NewDimOrder and the turn models panic
	// otherwise). Under faults every algorithm but Duato routes up*/down*
	// over the live graph, whatever the dimensions.
	if c.Faults.Empty() {
		switch c.Algorithm {
		case AlgYX:
			if len(c.Dims) != 2 {
				return fmt.Errorf("core: yx routing needs two dimensions, not %s; use xy, or yx on a 2-D mesh", c.Mesh())
			}
		case AlgNorthLast, AlgWestFirst, AlgNegativeFirst:
			if len(c.Dims) != 2 || c.Torus {
				return fmt.Errorf("core: %s is a turn model, defined for a 2-D mesh, not %s; use xy or duato", c.Algorithm, c.Mesh())
			}
		}
	}
	if c.Table == table.KindInterval {
		if !c.Algorithm.Deterministic() {
			return fmt.Errorf("core: interval tables require a deterministic algorithm")
		}
		if c.Torus {
			return fmt.Errorf("core: interval tables support meshes only, not tori; use yx on a 2-D mesh")
		}
		// One label interval per port needs each port's destinations to be
		// one contiguous run of row-major labels, which holds only when the
		// highest dimension is resolved first: yx in 2-D (xy in 1-D). Under
		// faults the structure's lookup is the fault-aware function
		// itself, so any order fits.
		highFirst := c.Algorithm == AlgYX && len(c.Dims) == 2 || c.Algorithm == AlgXY && len(c.Dims) == 1
		if c.Faults.Empty() && !highFirst {
			return fmt.Errorf("core: %s routing on %s is not interval-expressible (a port would cover a non-contiguous label run); use yx on a 2-D mesh", c.Algorithm, c.Mesh())
		}
	}
	if (c.Table == table.KindMetaRow || c.Table == table.KindMetaBlock) && (len(c.Dims) != 2 || c.Torus) {
		return fmt.Errorf("core: meta tables require a 2-D mesh")
	}
	if !c.Faults.Empty() {
		if !c.Faults.Fits(c.Mesh()) {
			return fmt.Errorf("core: damage %s was built for a different topology than %s", c.Faults, c.Mesh())
		}
		if c.Table == table.KindMetaRow || c.Table == table.KindMetaBlock {
			return fmt.Errorf("core: meta tables are defined for healthy meshes; use es or full under faults")
		}
		if c.Trace != nil && c.Faults.FailsRouters() {
			return fmt.Errorf("core: trace workloads require faults without dead routers (trace endpoints cannot be filtered)")
		}
	}
	return nil
}

// ValidateDims is Validate's first check on its own: the radices make a
// mesh. A fault spec names equipment in that mesh, so whoever parses one
// runs this first (Validate cannot: without the faults it would refuse
// what they permit, such as yx beyond two dimensions).
func ValidateDims(dims []int) error {
	if len(dims) == 0 {
		return fmt.Errorf("core: no dimensions")
	}
	for _, k := range dims {
		if k < 2 {
			return fmt.Errorf("core: radix %d < 2", k)
		}
	}
	return nil
}

// Result aggregates one run's measurements.
type Result struct {
	// AvgLatency is the mean message latency in cycles, from generation
	// at the source NI to tail delivery (includes source queueing).
	AvgLatency float64
	// NetLatency excludes source queueing (injection to delivery).
	NetLatency float64
	// CI95 is the 95% confidence half-width of AvgLatency: batch means
	// over the measured messages, ten batches.
	CI95 float64
	// P50, P95 and P99 are latency percentiles (bucketed, ~8% accuracy),
	// exposing the tail behaviour the mean hides near saturation.
	P50, P95, P99 float64
	// AvgHops is the mean link traversals per message.
	AvgHops float64
	// Throughput is delivered flits per node per cycle. It counts first
	// deliveries only: with the reliability layer on, retransmitted
	// copies and duplicate arrivals never inflate it.
	Throughput float64
	// Delivered is the number of measured messages.
	Delivered int64
	// Cycles is the measured span.
	Cycles int64
	// TotalCycles is the total number of cycles the simulation advanced,
	// including warmup and drain — the denominator for simulator
	// throughput (cycles/second) in perf harnesses. Cycles jumped over by
	// idle-cycle fast-forward count: they are simulated time during which
	// provably nothing happened.
	TotalCycles int64
	// SkippedCycles is how many of TotalCycles the idle-cycle
	// fast-forward jumped over instead of executing individually. The
	// jump is observationally neutral — every other field is bit-
	// identical to a run with fast-forward disabled.
	SkippedCycles int64
	// Saturated marks runs that hit a saturation guard; the paper
	// prints "Sat." for these.
	Saturated bool
	SatReason string

	// The remaining fields are populated only for runs under a fault
	// schedule (and, for the retransmission counters, with the
	// reliability layer on); they are zero otherwise.

	// DroppedFlits counts flits destroyed by fault transitions — in
	// flight on dying links, buffered in dying routers, or stranded with
	// no live path.
	DroppedFlits int64
	// DroppedMessages counts messages permanently lost to transitions.
	// Zero whenever the reliability layer is on and nothing was
	// abandoned: retransmission recovered every loss.
	DroppedMessages int64
	// ReconvergenceEpochs counts the fault transitions the run executed
	// (table swaps with live route reconvergence).
	ReconvergenceEpochs int64
	// DeliveredFraction is delivered measured messages over all measured
	// messages: 1.0 when nothing measured was lost.
	DeliveredFraction float64
	// RecoveryCycles is how long after the schedule's last failure the
	// delivery rate recovered to 95% of its pre-fault mean, measured in
	// cycles over coarse delivery-rate windows; -1 when the run never
	// recovered (or provides no pre-fault baseline to compare against).
	RecoveryCycles int64
	// Retransmits, DupSuppressed and Abandoned are the reliability
	// layer's counters: message copies retransmitted after timeout,
	// duplicate deliveries suppressed at receivers, and messages given
	// up on after MaxAttempts.
	Retransmits   int64
	DupSuppressed int64
	Abandoned     int64
}

// LatencyString renders AvgLatency the way the paper's tables do.
func (r Result) LatencyString() string {
	if r.Saturated {
		return "Sat."
	}
	return fmt.Sprintf("%.1f", r.AvgLatency)
}

// plumbing bundles the immutable structural pieces shared by every run
// over the same topology, routing policy and damage: the mesh, the VC
// partition, and the routes of every fault epoch (one for a healthy network
// or a static plan). All are read-only after construction, so concurrent
// runs (sweep workers) share them freely.
type plumbing struct {
	m      *topology.Mesh
	cls    routing.Class
	routes []*table.Routes
}

// maxStructures caps the plumbing cache. A healthy mesh structure is one
// 3^n-entry sign row per epoch, a few hundred bytes; any other is its
// routing function, whose largest form — a fault-aware algorithm's N^2
// next-hop and distance arrays — is about 3 MB per epoch on a 32x32 mesh.
// Every distinct fault plan or schedule is its own structure, so a service
// fed random plans would otherwise grow for as long as it runs. 64 holds
// every structure of a figure run (the experiments touch at most a few
// dozen) with room for a fault sweep's working set.
const maxStructures = 64

// structures memoizes plumbing per structural configuration, oldest
// structure forgotten first. Sweeps construct thousands of networks that
// differ only in workload and seed; rebuilding tables for each run used
// to be a visible fraction of low-load sweep time. The key includes the
// fault plan's canonical content: two runs differing only in damage must
// never share an algorithm or tables (TestPlumbingKeyedByFaults pins
// this), while equal damage from distinct Plan values still shares.
var structures = bounded.New[string, *plumbingEntry](maxStructures)

// plumbingEntry is one structure's build, run at most once however many
// goroutines ask for it while it is cold — unless it panics: then it stays
// unbuilt.
type plumbingEntry struct {
	mu    sync.Mutex
	built bool
	p     *plumbing
	err   error
}

// cachedPlumbing returns the plumbing that cache holds under key, building it
// with build on first touch. Concurrent first touches (sweep workers whose
// points share a cold structure) wait for one build instead of each paying
// it. An error is as much a function of the key as the tables are and is
// remembered like them; an evicted structure is simply built again. A build
// that panics (sweep and serve recover per point) leaves the entry unbuilt,
// so the next touch — a waiter, or a later run — builds again and panics the
// same way rather than read a structure that was never made.
func cachedPlumbing(cache *bounded.Map[string, *plumbingEntry], key string, build func() (*plumbing, error)) (*plumbing, error) {
	e, ok := cache.Load(key)
	if !ok {
		e, _ = cache.LoadOrStore(key, new(plumbingEntry))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.built {
		e.p, e.err = build()
		e.built = true
	}
	return e.p, e.err
}

func (c Config) plumbing() (*plumbing, error) {
	return cachedPlumbing(structures, c.structureKey(), c.buildPlumbing)
}

// structureKey identifies everything buildPlumbing reads, in canonical
// form: es, full and interval tables encode the algorithm itself
// (table.Program), so they share one structure; the meta kinds route by
// their own mapping. A static plan's key never holds an "@" and a timed
// schedule's always does, so the one fault term cannot confuse the two.
func (c Config) structureKey() string {
	c = c.canonical()
	return fmt.Sprintf("d%v,t%t,a%d,tb%d,f[%s]",
		c.Dims, c.Torus, int(c.Algorithm), int(c.Table), c.Faults.Key())
}

// buildPlumbing is the cold path behind the cache: for each fault epoch,
// the routing function and the routes every router shares; the network
// swaps between them at transitions.
func (c Config) buildPlumbing() (*plumbing, error) {
	m := c.Mesh()
	cls := c.class()
	routes, err := network.BuildEpochRoutes(m, c.Table, cls, c.Faults, func(plan *fault.Plan) (routing.Algorithm, error) {
		return c.algorithm(m, cls, plan)
	})
	if err != nil {
		return nil, err
	}
	return &plumbing{m: m, cls: cls, routes: routes}, nil
}

// maxIdleArenaBytes caps the storage the arena free list holds while no run
// is using it. A 16x16 network of the paper's Table 2 parameters is about
// 2.5 MB and a 32x32 one about 10 MB, so the cap holds a figure sweep's
// working set — one arena per worker per mesh size — several times over,
// and a service fed every shape there is stays bounded all the same. The
// cap counts storage allocated, not touched: about half of an arena is
// its generators' vectors, which stay untouched until a generator draws
// 274 times.
const maxIdleArenaBytes = 64 << 20

// arenas is the process-wide free list Run takes its networks from: the
// plumbing cache's sibling, one level down. The plumbing cache shares what
// a structure's runs can share because it is immutable; an arena is what
// they cannot share — the mutable network itself — so it is lent to one run
// at a time and reset, not rebuilt, for the next run of its shape.
var arenas = newArenaPool(maxIdleArenaBytes, runtime.GOMAXPROCS(0))

func init() { arenas.ageOnGC() }

// arenaPool holds idle networks, oldest first. It keeps at most perShape
// of one shape (no more runs of a shape than processors can be in flight
// at once and profit) and at most maxBytes of storage in all, evicting the
// oldest first; an evicted or refused network is simply garbage.
type arenaPool struct {
	mu       sync.Mutex
	idle     []idleArena
	bytes    int
	maxBytes int
	perShape int
}

type idleArena struct {
	net   *network.Network
	bytes int
	// gcs counts the garbage collections the arena has sat through idle.
	gcs int
}

// maxIdleGCs is how many garbage collections an arena may sit through
// idle before the list lets go of it, the way sync.Pool ages what it holds:
// a sweep reuses an arena every few points, while a process that has
// stopped simulating — a service between jobs — should not carry its last
// job's networks as live heap (and, at GOGC's doubling, twice that in
// footprint) for as long as it runs. Four, not sync.Pool's two: a cold
// structure's build can run through collections by itself (a fault-aware
// 32x32 one allocates 3 MB per epoch), and the other shapes' arenas should
// outlast a neighbour's first touch.
const maxIdleGCs = 4

// ageOnGC makes every garbage collection age the idle arenas, dropping
// those that reach maxIdleGCs. The hook is a finalizer on a sentinel that
// each run of it replaces.
func (p *arenaPool) ageOnGC() {
	type sentinel struct{ _ *arenaPool }
	runtime.SetFinalizer(&sentinel{p}, func(*sentinel) {
		p.age()
		p.ageOnGC()
	})
}

// age records one more collection survived idle and evicts the arenas that
// have had their share.
func (p *arenaPool) age() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].gcs++; p.idle[i].gcs >= maxIdleGCs {
			p.evict(i)
		}
	}
}

func newArenaPool(maxBytes, perShape int) *arenaPool {
	return &arenaPool{maxBytes: maxBytes, perShape: max(perShape, 1)}
}

// get checks out the most recently returned network of shape s — the one
// likeliest to still be in cache — or returns nil when none is idle. The
// caller owns it until it hands it to put, or drops it.
func (p *arenaPool) get(s network.Shape) *network.Network {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if a := p.idle[i]; a.net.Shape() == s {
			p.evict(i)
			return a.net
		}
	}
	return nil
}

// put returns a network no run is using any more. The network is parked
// first, so an idle one pins no table, pattern, trace or schedule — in
// particular not a plumbing entry the plumbing cache has since evicted.
func (p *arenaPool) put(n *network.Network) {
	n.Park()
	a := idleArena{net: n, bytes: n.Bytes()}
	if a.bytes > p.maxBytes {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, a)
	p.bytes += a.bytes
	same, oldest := 0, -1
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].net.Shape() == n.Shape() {
			same, oldest = same+1, i
		}
	}
	if same > p.perShape {
		p.evict(oldest)
	}
	for p.bytes > p.maxBytes {
		p.evict(0)
	}
}

// evict removes idle[i]; callers hold mu.
func (p *arenaPool) evict(i int) {
	p.bytes -= p.idle[i].bytes
	p.idle = slices.Delete(p.idle, i, i+1)
}

// Run executes the measurement loop on the network cfg describes and
// returns its results.
//
// Checkout discipline: the network is an arena of cfg's shape
// (network.Shape: what sizes storage) checked out of a process-wide free
// list, or allocated when none is idle, and reset to cfg — network.Reset is
// the only initialiser a network has, so which arena a run gets, and what
// ran in it before, is unobservable in the Result. One Run owns the arena
// at a time (two sweep workers on one shape hold two). It goes back on the
// list only after the last read of its state — the Result carries values,
// never pointers into the arena — and only on success: a Run that leaves by
// a panic (sweep and serve recover those per point) drops its arena instead
// of returning it half-stepped.
func Run(cfg Config) (Result, error) { return run(cfg, arenas, nil) }

// run is Run over an explicit free list. seam, when non-nil, edits the
// network configuration just before the network is reset to it — a test
// seam, for planting a fault inside the run.
func run(cfg Config, pool *arenaPool, seam func(*network.Config)) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	p, err := cfg.plumbing()
	if err != nil {
		return Result{}, err
	}
	m := p.m
	ncfg := network.Config{
		Mesh:   m,
		Faults: cfg.Faults,
		Router: router.Config{
			NumVCs: VCs, BufDepth: BufDepth, OutDepth: OutDepth,
			LookAhead: cfg.LookAhead,
		},
		Class:     p.cls,
		Routes:    p.routes,
		Selection: cfg.Selection,
		Trace:     cfg.Trace,
		MsgLen:    cfg.MsgLen,
		Seed:      cfg.Seed,
		EventMode: cfg.EventMode,
	}
	if cfg.Reliability {
		ncfg.Reliability = &network.Reliability{}
	}
	if cfg.Trace == nil {
		ncfg.Pattern = traffic.New(cfg.Pattern, m)
		ncfg.MsgRate = traffic.MessageRate(m, cfg.Load, cfg.MsgLen)
		ncfg.Burst = cfg.Burst
	}
	if cfg.QoS != 0 {
		ncfg.QoSHiFrac = cfg.QoS
		ncfg.Router.ResvVCs = ResvVCs
	}
	if seam != nil {
		seam(&ncfg)
	}
	// No deferred return of the arena: every exit from here to pool.put is
	// a panic, and a panic must drop it.
	net := pool.get(network.ShapeOf(ncfg))
	if net == nil {
		net = network.New(ncfg)
	} else {
		net.Reset(ncfg)
	}
	params := network.RunParams{
		WarmupMessages:  cfg.Warmup,
		MeasureMessages: cfg.Measure,
		MaxCycles:       cfg.MaxCycles,
	}
	run := net.Run(params)
	res := Result{
		AvgLatency:    run.Latency.Mean(),
		NetLatency:    run.NetLatency.Mean(),
		CI95:          run.LatencyBatches.HalfWidth95(),
		P50:           run.LatencyHist.Quantile(0.50),
		P95:           run.LatencyHist.Quantile(0.95),
		P99:           run.LatencyHist.Quantile(0.99),
		AvgHops:       run.Hops.Mean(),
		Throughput:    run.Throughput(),
		Delivered:     run.Latency.N(),
		Cycles:        run.Cycles,
		TotalCycles:   net.Now(),
		SkippedCycles: net.SkippedCycles(),
		Saturated:     run.Saturated,
		SatReason:     run.SatReason,
	}
	if s := cfg.Faults; s.Epochs() > 1 {
		res.DroppedFlits = net.DroppedFlits()
		res.DroppedMessages = net.DroppedMessages()
		res.ReconvergenceEpochs = net.ReconvergenceEpochs()
		res.DeliveredFraction = float64(run.Latency.N()) / float64(params.MeasureMessages)
		res.RecoveryCycles = recoveryCycles(net.DeliveryWindows(), s.FirstDown(), s.LastDown())
	}
	if cfg.Reliability {
		res.Retransmits = net.Retransmits()
		res.DupSuppressed = net.DupSuppressed()
		res.Abandoned = net.Abandoned()
	}
	pool.put(net)
	return res, nil
}

// recoveryCycles computes the post-fault recovery time from the network's
// coarse delivery-rate windows (network.WindowCycles cycles each): the
// pre-fault delivery rate is the mean over the full windows before the
// schedule's first failure, and the network has recovered at the first
// window at or after the last failure whose rate reaches 95% of it.
// Returns the cycles from the last failure to the end of that window, or
// -1 when no pre-fault baseline exists or the rate never recovers within
// the run.
func recoveryCycles(windows []int64, firstDown, lastDown int64) int64 {
	const win = network.WindowCycles
	if firstDown < 0 || lastDown < 0 {
		return -1
	}
	pre := firstDown / win // full windows before the first failure
	if pre <= 0 || pre > int64(len(windows)) {
		return -1
	}
	var sum int64
	for _, w := range windows[:pre] {
		sum += w
	}
	rate := float64(sum) / float64(pre)
	if rate <= 0 {
		return -1
	}
	for i := lastDown / win; i < int64(len(windows)); i++ {
		if float64(windows[i]) >= 0.95*rate {
			end := (i + 1) * win
			if d := end - lastDown; d > 0 {
				return d
			}
			return 0
		}
	}
	return -1
}
