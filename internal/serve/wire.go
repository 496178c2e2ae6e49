// Package serve is the sweep engine as a long-running service:
// lapses-serve accepts experiment-grid jobs over HTTP/JSON, executes
// them through internal/sweep, and persists every completed point to a
// disk-backed content-addressed result store keyed by core.Config.Key —
// so overlapping grids submitted across processes, users and restarts
// cost one simulation per unique point, ever.
//
// The package splits into four layers:
//
//   - wire.go: Point, the serializable form of a core.Config. Its
//     round-trip guarantee (PointFromConfig then Point.Config preserves
//     Config.Key bit for bit) is what makes served results
//     byte-identical to in-process sweeps.
//   - store.go: Store, the crash-safe result store (atomic temp-file +
//     rename writes, per-entry checksums, startup recovery scan with
//     quarantine, process-level single-flight). It implements
//     sweep.Cacher. An entry has one compact layout, read in one pass:
//     a stored result is read once per job, however many of the job's
//     points share its key, verified (checksum, key, one strict decode of
//     the result, which is also its JSON check) and served as the bytes
//     the store holds.
//   - server.go: Server, the HTTP job service — bounded queue with 429
//     backpressure, a job deadline (ServerOptions.JobTimeout) and
//     cancellation, graceful drain.
//     Every job turns terminal in one place, which wakes the requests
//     held on it: GET /v1/jobs/{id} and GET /v1/jobs/{id}/results with
//     ?wait_ms=N answer when the job finishes or after N ms (at most
//     30 s), the results of a job still running then with 409. Bodies
//     are compact JSON, and results are one outcome per submitted
//     point, in submission order, naming no point. A job keeps each
//     point's result as the JSON it serves — a store hit's verified
//     bytes, or a reported result encoded once — and the results body
//     is built from those bytes without re-encoding them. A request
//     body is one JSON value; anything after it is refused, and so is a
//     member the server does not read, at any depth, by name. The 64
//     most recent finished jobs stay queryable; older IDs answer 404
//     "expired; resubmit".
//   - client.go: Client, the thin consumer the CLIs use
//     (lapses-experiments -server); Client.Run satisfies
//     sweep.RunFunc, so grids and bisection probes route through a
//     server unchanged. Idempotent requests ride a transport-retry
//     loop (connection errors and gateway 5xx, 5 attempts, jittered
//     backoff). A results body is decoded in one strict pass, each
//     result in place by core.Result's decoder, on internal/jsonscan,
//     the tokenizer both share.
//     Client.Wait and Client.Run share one loop over a held call: the
//     status for Wait, the results for Run, so a Run is two requests
//     (submit, results) on one kept-alive connection. PollInterval is
//     the least time between two of them, which only a server that
//     does not hold (older, or draining) makes it sleep.
//   - cluster.go / lease.go / worker.go / retry.go: how every job runs.
//     The server leases each grid one point a lease; the running job
//     holds the leases with its outcomes. A Worker has Worker.Workers
//     slots: it takes a free one before each claim, runs the lease on its
//     own goroutine with its own heartbeat, and frees the slot once the
//     lease's report is sent. A standalone server starts one Worker of
//     its own (ServerOptions.Workers) that claims by function call; a
//     coordinator (ServerOptions.Cluster set) leases to Worker processes
//     over HTTP. A point is requeued for one reason: it is unresolved
//     when its lease ends, because the failure detector expired the
//     lease (its worker went silent past its TTL) or its worker handed
//     it back (a draining worker reports only the points it ran). After
//     ServerOptions.MaxAttempts claims it fails. Every reported error, a
//     panic included, fails its point at once. Workers simulate against
//     the Store, so every finished point is durable before it is
//     reported and a requeued lease re-simulates nothing persisted. An
//     idle remote worker's claim carries wait_ms too: the coordinator
//     holds it (at most 30 s and one lease TTL) until a point is queued
//     or requeued.
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
// reads, which fault.ParseSchedule turns into Config.Faults; the adaptive
// tier is its tolerance, "auto_tol"; burst, QoS and reliability parameters
// travel as the core types themselves, which carry the wire's names as
// struct tags. Trace workloads have no wire form — PointFromConfig rejects
// them. A server decodes a point strictly: a member Point does not
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

	Reliability *core.Reliability `json:"reliability,omitempty"`

	VCs       *int `json:"vcs"`
	EscapeVCs *int `json:"escape_vcs"`
	BufDepth  *int `json:"buf_depth"`
	OutDepth  *int `json:"out_depth"`
	LinkDelay *int `json:"link_delay"`

	LookAhead *bool  `json:"lookahead"`
	Algorithm string `json:"algorithm"`
	Table     string `json:"table"`
	Selection string `json:"selection"`

	Pattern string         `json:"pattern"`
	Load    *float64       `json:"load"`
	MsgLen  *int           `json:"msg_len"`
	Burst   *traffic.Burst `json:"burst,omitempty"`
	QoS     *core.QoSSpec  `json:"qos,omitempty"`

	Warmup  *int    `json:"warmup"`
	Measure *int    `json:"measure"`
	AutoTol float64 `json:"auto_tol,omitempty"`

	MaxCycles  int64   `json:"max_cycles,omitempty"`
	SatLatency float64 `json:"sat_latency,omitempty"`
	Seed       *int64  `json:"seed"`

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
		Dims:       append([]int(nil), c.Dims...),
		Torus:      c.Torus,
		VCs:        &c.VCs,
		EscapeVCs:  &c.EscapeVCs,
		BufDepth:   &c.BufDepth,
		OutDepth:   &c.OutDepth,
		LinkDelay:  &c.LinkDelay,
		LookAhead:  &c.LookAhead,
		Algorithm:  c.Algorithm.String(),
		Table:      c.Table.String(),
		Selection:  c.Selection.String(),
		Pattern:    c.Pattern.String(),
		Load:       &c.Load,
		MsgLen:     &c.MsgLen,
		Warmup:     &c.Warmup,
		Measure:    &c.Measure,
		MaxCycles:  c.MaxCycles,
		SatLatency: c.SatLatency,
		Seed:       &c.Seed,
		EventMode:  c.EventMode,
		AutoTol:    c.AutoTol,

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
		Dims:       append([]int(nil), p.Dims...),
		Torus:      p.Torus,
		VCs:        *p.VCs,
		EscapeVCs:  *p.EscapeVCs,
		BufDepth:   *p.BufDepth,
		OutDepth:   *p.OutDepth,
		LinkDelay:  *p.LinkDelay,
		LookAhead:  *p.LookAhead,
		Load:       *p.Load,
		MsgLen:     *p.MsgLen,
		Warmup:     *p.Warmup,
		Measure:    *p.Measure,
		MaxCycles:  p.MaxCycles,
		SatLatency: p.SatLatency,
		Seed:       *p.Seed,
		EventMode:  p.EventMode,
		AutoTol:    p.AutoTol,

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
	case p.VCs == nil:
		return "vcs"
	case p.EscapeVCs == nil:
		return "escape_vcs"
	case p.BufDepth == nil:
		return "buf_depth"
	case p.OutDepth == nil:
		return "out_depth"
	case p.LinkDelay == nil:
		return "link_delay"
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
