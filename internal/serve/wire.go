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
//     sweep.Cacher.
//   - server.go: Server, the HTTP job service — bounded queue with 429
//     backpressure, per-job deadlines and cancellation, graceful drain.
//     Every job turns terminal in one place, which wakes the status
//     requests held on it: GET /v1/jobs/{id}?wait_ms=N answers when the
//     job finishes or after N ms (at most 30 s). The 64 most recent
//     finished jobs stay queryable; older IDs answer 404 "expired;
//     resubmit".
//   - client.go: Client, the thin consumer the CLIs use
//     (lapses-experiments -server); Client.Run satisfies
//     sweep.RunFunc, so grids and bisection probes route through a
//     server unchanged. Idempotent requests ride a transport-retry
//     loop (connection errors and gateway 5xx, jittered backoff).
//     Client.Wait is a loop over the held status call; PollInterval is
//     the least time between two of them, which only a server that
//     does not hold (older, or draining) makes it sleep.
//   - cluster.go / lease.go / worker.go / retry.go: how every job runs.
//     The server cuts each grid into leased work units that Worker loops
//     claim, heartbeat and complete: a standalone server's own slots by
//     function call, a coordinator's (ServerOptions.Cluster set) Worker
//     processes over HTTP. A lease whose worker goes silent past its TTL
//     is requeued by the failure detector, as is a unit with a point
//     failed Transient, up to ServerOptions.MaxAttempts claims; a panic
//     fails its point at once. Workers simulate against the Store, so
//     every finished point is durable before it is reported and a
//     requeued lease re-simulates nothing persisted. An idle remote
//     worker's claim carries wait_ms too: the coordinator holds it (at
//     most 30 s and one lease TTL) until a unit is seeded or requeued.
package serve

import (
	"fmt"
	"strings"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/traffic"
)

// Point is the serializable form of one grid point. Enumerations travel
// by name (the String forms the CLIs already parse) so payloads stay
// readable and stable across releases; damage travels as its canonical
// spec string, under "faults" when static and under "schedule" when timed
// (the two names requests have always used; both are read by
// fault.ParseSchedule into Config.Faults, and a point may use only one);
// the measurement tier, burst, QoS and reliability parameters travel as the
// core types themselves, which carry the wire's names as struct tags. Trace
// workloads have no wire form — PointFromConfig rejects them.
//
// The contract, pinned by TestPointCarriesEveryConfigField over every
// field of core.Config: PointFromConfig(c) either fails naming the field
// the wire cannot carry, or the round trip through Point.Config yields a
// config with an identical Config.Key, hence bit-identical simulation
// results and store lines. No field is ever dropped silently.
type Point struct {
	Dims     []int  `json:"dims"`
	Torus    bool   `json:"torus,omitempty"`
	Faults   string `json:"faults,omitempty"`   // static damage, e.g. "12-13,r77"
	Schedule string `json:"schedule,omitempty"` // timed damage, e.g. "12-13@5000:9000,r77"

	Reliability *core.Reliability `json:"reliability,omitempty"`

	VCs       int `json:"vcs"`
	EscapeVCs int `json:"escape_vcs"`
	BufDepth  int `json:"buf_depth"`
	OutDepth  int `json:"out_depth"`
	LinkDelay int `json:"link_delay"`

	LookAhead bool   `json:"lookahead"`
	Algorithm string `json:"algorithm"`
	Table     string `json:"table"`
	Selection string `json:"selection"`
	// CutThrough is read only to be refused: cut-through switching is no
	// longer modelled, and a point asking for it must not be answered with
	// a wormhole result.
	CutThrough bool `json:"cut_through,omitempty"`

	Pattern string         `json:"pattern"`
	Load    float64        `json:"load"`
	MsgLen  int            `json:"msg_len"`
	Burst   *traffic.Burst `json:"burst,omitempty"`
	QoS     *core.QoSSpec  `json:"qos,omitempty"`

	Warmup  int               `json:"warmup"`
	Measure int               `json:"measure"`
	Auto    *core.AutoMeasure `json:"auto,omitempty"`

	MaxCycles  int64   `json:"max_cycles,omitempty"`
	SatLatency float64 `json:"sat_latency,omitempty"`
	Seed       int64   `json:"seed"`

	EventMode bool `json:"event_mode,omitempty"`
}

// PointFromConfig converts a Config to its wire form. Trace-driven
// configs are rejected: a trace's messages have no wire form, only a
// digest in Config.Key.
func PointFromConfig(c core.Config) (Point, error) {
	if c.Trace != nil {
		return Point{}, fmt.Errorf("serve: Config.Trace has no wire form (a trace's messages stay in the process that built it) and cannot be submitted to a server")
	}
	p := Point{
		Dims:       append([]int(nil), c.Dims...),
		Torus:      c.Torus,
		VCs:        c.VCs,
		EscapeVCs:  c.EscapeVCs,
		BufDepth:   c.BufDepth,
		OutDepth:   c.OutDepth,
		LinkDelay:  c.LinkDelay,
		LookAhead:  c.LookAhead,
		Algorithm:  c.Algorithm.String(),
		Table:      c.Table.String(),
		Selection:  c.Selection.String(),
		Pattern:    c.Pattern.String(),
		Load:       c.Load,
		MsgLen:     c.MsgLen,
		Warmup:     c.Warmup,
		Measure:    c.Measure,
		MaxCycles:  c.MaxCycles,
		SatLatency: c.SatLatency,
		Seed:       c.Seed,
		EventMode:  c.EventMode,

		Auto:        c.Auto,
		Burst:       c.Burst,
		QoS:         c.QoS,
		Reliability: c.Reliability,
	}
	// Schedule.Key is the canonical "A-B;...;rN" content of a static plan
	// and "A-B@DOWN:UP;..." of a timed schedule; ParseSchedule reads the
	// same items comma-separated.
	if spec := strings.ReplaceAll(c.Faults.Key(), ";", ","); c.Faults.Epochs() == 1 {
		p.Faults = spec
	} else {
		p.Schedule = spec
	}
	return p, nil
}

// Config materializes the wire point back into a validated core.Config.
func (p Point) Config() (core.Config, error) {
	if len(p.Dims) == 0 {
		return core.Config{}, fmt.Errorf("serve: point has no dimensions")
	}
	for _, k := range p.Dims {
		if k < 2 {
			return core.Config{}, fmt.Errorf("serve: point radix %d < 2", k)
		}
	}
	if p.CutThrough {
		return core.Config{}, fmt.Errorf("serve: point cut_through: cut-through switching is no longer modelled; drop the field to run the wormhole router")
	}
	c := core.Config{
		Dims:       append([]int(nil), p.Dims...),
		Torus:      p.Torus,
		VCs:        p.VCs,
		EscapeVCs:  p.EscapeVCs,
		BufDepth:   p.BufDepth,
		OutDepth:   p.OutDepth,
		LinkDelay:  p.LinkDelay,
		LookAhead:  p.LookAhead,
		Load:       p.Load,
		MsgLen:     p.MsgLen,
		Warmup:     p.Warmup,
		Measure:    p.Measure,
		MaxCycles:  p.MaxCycles,
		SatLatency: p.SatLatency,
		Seed:       p.Seed,
		EventMode:  p.EventMode,

		Auto:        p.Auto,
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
	if p.Faults != "" && p.Schedule != "" {
		return core.Config{}, fmt.Errorf("serve: point faults %q and schedule %q are mutually exclusive; send all damage in one", p.Faults, p.Schedule)
	}
	if spec := p.Faults + p.Schedule; spec != "" {
		if c.Faults, err = fault.ParseSchedule(c.Mesh(), spec); err != nil {
			return core.Config{}, fmt.Errorf("serve: point faults: %w", err)
		}
	}
	if err := c.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("serve: point config: %w", err)
	}
	return c, nil
}

// PointsFromGrid converts a grid, failing on the first unserializable
// config with its index.
func PointsFromGrid(grid []core.Config) ([]Point, error) {
	pts := make([]Point, len(grid))
	for i, c := range grid {
		p, err := PointFromConfig(c)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		pts[i] = p
	}
	return pts, nil
}
