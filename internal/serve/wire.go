// Package serve is the sweep engine as a long-running service:
// lapses-serve accepts experiment-grid jobs over HTTP/JSON, executes
// them through internal/sweep, and persists every completed point to a
// disk-backed content-addressed result store keyed by core.Config.Key —
// so overlapping grids submitted across processes, users and restarts
// cost one simulation per unique point, ever.
//
// The package splits into these layers; each type's doc holds its
// contract:
//
//   - wire.go: Point, the serializable form of a core.Config, whose round
//     trip preserves Config.Key bit for bit, so served results are
//     byte-identical to in-process sweeps.
//   - store.go: Store, the crash-safe result store of one
//     core.SemanticsVersion (atomic writes, per-entry checksums, a
//     recovery scan that quarantines damage).
//   - server.go: Server, the HTTP job service — bounded queue with 429
//     backpressure, deadlines and cancellation, requests held until a
//     job ends (wait_ms), graceful drain. Strict bodies: a member the
//     server does not read is refused by name.
//   - client.go: Client, the consumer the CLIs use; Client.Run satisfies
//     sweep.RunFunc, so grids and bisection probes route through a
//     server unchanged.
//   - cluster.go / lease.go / worker.go / retry.go: how every job runs.
//     The server leases each grid one point a lease, to its own Worker
//     by function call when standalone, or to Worker processes of its
//     own build and semantics version over HTTP when a coordinator
//     (ServerOptions.Cluster). A job leases each distinct key once, and
//     its outcome answers every point that shares the key. A point
//     unresolved when its lease ends (expired, or handed back by a
//     draining worker) is requeued, up to ServerOptions.MaxAttempts
//     claims; every reported error fails its point at once. Workers
//     simulate against the Store, so a finished point is durable before
//     it is reported.
package serve

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/traffic"
)

// Point is the serializable form of one grid point. Every member without
// omitempty is required: a point that leaves one out, or sends null, is
// refused by Point.Config naming it, instead of running as the zero value
// (PROUD for a dropped "lookahead", seed 0 for a dropped "seed"). So the
// required scalars are pointers, nil when the member was missing, and
// enumerations travel by name as strings (the String forms the CLIs
// already parse), empty when missing, which also keeps payloads readable
// and stable across releases. Damage, static or timed, travels
// under "faults" as its canonical spec string, the form lapses-sim -faults
// reads, which fault.ParseSchedule turns into Config.Faults; the
// reliability layer is a switch, "reliability", and QoS its high-class
// fraction, "qos"; burst parameters
// travel as traffic.Burst itself, which carries the wire's names as struct
// tags. Trace workloads have no wire form — PointFromConfig rejects them. A server decodes a point strictly: a member Point does not
// declare, at any depth, refuses the job.
//
// The contract, pinned by TestPointCarriesEveryConfigField over every
// field of core.Config: PointFromConfig(c) either fails naming the field
// the wire cannot carry, or the round trip through Point.Config yields a
// config with an identical Config.Key, hence bit-identical simulation
// results and store lines. No field is ever dropped silently.
type Point struct {
	Dims   []int  `json:"dims"`
	Torus  bool   `json:"torus,omitempty"`
	Faults string `json:"faults,omitempty"` // damage, e.g. "12-13,r77" or "12-13@5000:9000,r77"

	Reliability bool `json:"reliability,omitempty"`

	LookAhead *bool  `json:"lookahead"`
	Algorithm string `json:"algorithm"`
	Table     string `json:"table"`
	Selection string `json:"selection"`

	Pattern string         `json:"pattern"`
	Load    *float64       `json:"load"`
	MsgLen  *int           `json:"msg_len"`
	Burst   *traffic.Burst `json:"burst,omitempty"`
	QoS     float64        `json:"qos,omitempty"`

	Warmup  *int `json:"warmup"`
	Measure *int `json:"measure"`

	MaxCycles int64  `json:"max_cycles,omitempty"`
	Seed      *int64 `json:"seed"`

	EventMode bool `json:"event_mode,omitempty"`
}

// errTrace refuses a trace-driven config: a trace's messages have no
// wire form, only a digest in Config.Key.
var errTrace = errors.New("serve: Config.Trace has no wire form (a trace's messages stay in the process that built it) and cannot be submitted to a server")

// PointFromConfig converts a Config to its wire form. Trace-driven
// configs are rejected.
func PointFromConfig(c core.Config) (Point, error) {
	if c.Trace != nil {
		return Point{}, errTrace
	}
	return point(&c), nil
}

// point is PointFromConfig for a config with no trace, which has a wire
// form: every config a Point materializes. The point's required scalars
// point into *c, which must not change while the point is in use.
func point(c *core.Config) Point {
	return Point{
		Dims:      append([]int(nil), c.Dims...),
		Torus:     c.Torus,
		LookAhead: &c.LookAhead,
		Algorithm: c.Algorithm.String(),
		Table:     c.Table.String(),
		Selection: c.Selection.String(),
		Pattern:   c.Pattern.String(),
		Load:      &c.Load,
		MsgLen:    &c.MsgLen,
		Warmup:    &c.Warmup,
		Measure:   &c.Measure,
		MaxCycles: c.MaxCycles,
		Seed:      &c.Seed,
		EventMode: c.EventMode,

		// Schedule.Key is the canonical "A-B;...;rN" content of a static
		// plan and "A-B@DOWN:UP;..." of a timed schedule; ParseSchedule
		// reads the same items comma-separated.
		Faults:      strings.ReplaceAll(c.Faults.Key(), ";", ","),
		Burst:       c.Burst,
		QoS:         c.QoS,
		Reliability: c.Reliability,
	}
}

// Config materializes the wire point back into a validated core.Config.
// A point that lacks a required member fails naming it.
func (p Point) Config() (core.Config, error) {
	if m := p.missing(); m != "" {
		return core.Config{}, fmt.Errorf("serve: point lacks required member %q", m)
	}
	c := core.Config{
		Dims:      append([]int(nil), p.Dims...),
		Torus:     p.Torus,
		LookAhead: *p.LookAhead,
		Load:      *p.Load,
		MsgLen:    *p.MsgLen,
		Warmup:    *p.Warmup,
		Measure:   *p.Measure,
		MaxCycles: p.MaxCycles,
		Seed:      *p.Seed,
		EventMode: p.EventMode,

		Burst:       p.Burst,
		QoS:         p.QoS,
		Reliability: p.Reliability,
	}
	var err error
	if c.Algorithm, err = core.ParseAlg(p.Algorithm); err != nil {
		return core.Config{}, fmt.Errorf("serve: point algorithm: %w", err)
	}
	if c.Table, err = table.ParseKind(p.Table); err != nil {
		return core.Config{}, fmt.Errorf("serve: point table: %w", err)
	}
	if c.Selection, err = selection.ParseKind(p.Selection); err != nil {
		return core.Config{}, fmt.Errorf("serve: point selection: %w", err)
	}
	if c.Pattern, err = traffic.ParseKind(p.Pattern); err != nil {
		return core.Config{}, fmt.Errorf("serve: point pattern: %w", err)
	}
	if p.Faults != "" {
		if err := core.ValidateDims(c.Dims); err != nil {
			return core.Config{}, fmt.Errorf("serve: point config: %w", err)
		}
		if c.Faults, err = fault.ParseSchedule(c.Mesh(), p.Faults); err != nil {
			return core.Config{}, fmt.Errorf("serve: point faults: %w", err)
		}
	}
	if err := c.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("serve: point config: %w", err)
	}
	return c, nil
}

// missing names the first required member p lacks, by its wire name;
// "" if it has them all.
func (p Point) missing() string {
	switch {
	case p.Dims == nil:
		return "dims"
	case p.LookAhead == nil:
		return "lookahead"
	case p.Algorithm == "":
		return "algorithm"
	case p.Table == "":
		return "table"
	case p.Selection == "":
		return "selection"
	case p.Pattern == "":
		return "pattern"
	case p.Load == nil:
		return "load"
	case p.MsgLen == nil:
		return "msg_len"
	case p.Warmup == nil:
		return "warmup"
	case p.Measure == nil:
		return "measure"
	case p.Seed == nil:
		return "seed"
	}
	return ""
}

// PointsFromGrid converts a grid, failing on the first unserializable
// config with its index. The points' required scalars point into one
// copy of the grid, not a copy per point.
func PointsFromGrid(grid []core.Config) ([]Point, error) {
	cs := slices.Clone(grid)
	pts := make([]Point, len(cs))
	for i := range cs {
		if cs[i].Trace != nil {
			return nil, fmt.Errorf("point %d: %w", i, errTrace)
		}
		pts[i] = point(&cs[i])
	}
	return pts, nil
}
