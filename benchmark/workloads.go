package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"

	"lapses/internal/core"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/traffic"
)

// The benchmark owns its inputs: every point below is declared here from
// core.DefaultConfig() (16x16 mesh, 4 VCs, 20-flit messages), so no
// change to the program's own experiment grids can make the benchmark
// do less work. Message counts are a tenth of the simulator's default
// fidelity: one round of a workload then takes 1-2 s on the 2-core
// reference box and a run of -seconds 10 holds four to ten of them.

// workloadDef is one named set of inputs and the harness that runs it.
type workloadDef struct {
	Name string
	Why  string
	// Workers is the closed-loop concurrency: how many core.Run calls the
	// workload keeps in flight (utilisation is busy time over wall x Workers).
	Workers int
	// Fresh runs every round in a new child process, for the one
	// workload whose subject is the program's process-lifetime caches.
	Fresh bool
	// TimerBound marks the workload whose wall-clock is set by timers
	// (the client's poll cadence), not by the processor, and so is not
	// converted to calibrated seconds; its CPU time still is.
	TimerBound bool
	setup      func(env *runEnv) (instance, error)
}

// instance is a workload after set-up, ready to run rounds.
type instance interface {
	// round runs the workload's inputs once, timing them with m. sc is
	// nil on untraced rounds.
	round(sc *scope, m *meter) roundResult
	// verify runs after the timed rounds: comparisons against a reference
	// that must not be timed. It returns failed checks and, on traced
	// runs, per-layer metrics only a reference run can give.
	verify(env *runEnv, wallS float64) ([]string, map[string]float64)
	close()
}

var workloads = []workloadDef{
	{Name: "kernel-flow", Workers: 1, setup: setupKernel(kernelFlow, true),
		Why: "Serial core.Run below saturation: flits stream, so time is the per-flit-hop path of router+network; construction is under 3%."},
	{Name: "kernel-congested", Workers: 1, setup: setupKernel(kernelCongested, true),
		Why: "Serial core.Run at and past saturation: buffers full and heads blocked, so cost is per cycle, not per flit-hop."},
	{Name: "kernel-event", Workers: 1, setup: setupKernel(kernelEvent, true),
		Why: "The same router/network layers entered through the event-mode worm/express path; twin of a kernel-flow point for equivalence."},
	{Name: "kernel-short", Workers: 1, Fresh: true, setup: setupKernel(kernelShort, false),
		Why: "100-message runs over 30 structures in a fresh process: Validate, Key, plumbing-cache miss and hit, network.New dominate."},
	{Name: "grid-inproc", Workers: 2, setup: setupInproc,
		Why: "What a user does: a 65-point figure grid through sweep.Run with 2 workers and the memo cache; base of the service tax."},
	{Name: "grid-served", Workers: 2, setup: setupServed,
		Why: "The same grid through serve.Client over loopback HTTP into an empty durable store: wire, job queue, fsync per point."},
	{Name: "grid-cluster", Workers: 2, setup: setupCluster,
		Why: "The same grid through a coordinator and 2 one-slot workers sharing a store: lease claim, heartbeat, complete, merge."},
	{Name: "served-warm", Workers: 2, TimerBound: true, setup: setupWarm,
		Why: "Resubmitting a fully stored grid with the default client: no simulation, all time is poll cadence, HTTP, JSON, store hits."},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizing is the scale of the inputs: full for measurement, small for the
// tier-1 test (halved meshes, a tenth of the messages).
type sizing struct{ small bool }

func (z sizing) msgs(n int) int {
	if z.small {
		return max(n/10, 20)
	}
	return n
}

func (z sizing) mesh(k int) []int {
	if z.small {
		k = max(k/2, 4)
	}
	return []int{k, k}
}

// point is one simulation the benchmark asks for. Flowing points run
// below saturation by construction and must deliver every measured
// message; the others only have to return consistent statistics.
type point struct {
	cfg     core.Config
	flowing bool
}

// base is the LAPSES router of the paper on the default mesh: look-ahead,
// Duato adaptive routing, economical-storage table, LRU selection.
func base(seed int64, z sizing, warmup, measure int) core.Config {
	c := core.DefaultConfig()
	c.Dims = z.mesh(16)
	c.Warmup, c.Measure = z.msgs(warmup), z.msgs(measure)
	c.Seed = seed
	return c
}

// proudDet turns c into the deterministic PROUD baseline: no look-ahead,
// XY routing, full table, static selection.
func proudDet(c core.Config) core.Config {
	c.LookAhead = false
	c.Algorithm = core.AlgXY
	c.Table = table.KindFull
	c.Selection = selection.StaticXY
	return c
}

func with(c core.Config, f func(*core.Config)) core.Config {
	f(&c)
	return c
}

func kernelFlow(seed int64, z sizing) []point {
	b := base(seed, z, 300, 2000)
	cfgs := []core.Config{
		b, // uniform 0.2
		with(b, func(c *core.Config) { c.Load = 0.5 }),
		with(proudDet(b), func(c *core.Config) { c.Load = 0.4 }),
		with(b, func(c *core.Config) { c.Selection = selection.StaticXY; c.Pattern = traffic.Transpose }),
		with(b, func(c *core.Config) { c.Selection = selection.MaxCredit; c.Pattern = traffic.BitReversal }),
		with(b, func(c *core.Config) { c.MsgLen = 5; c.Measure *= 4 }),
		with(b, func(c *core.Config) { c.Dims = z.mesh(32); c.Load = 0.3; c.Measure *= 2 }),
	}
	return flowing(cfgs)
}

func kernelCongested(seed int64, z sizing) []point {
	b := base(seed, z, 1000, 3000)
	return []point{
		// Saturates: the run ends on its cycle budget, so its cost is a
		// fixed number of cycles whatever the seed.
		{cfg: with(proudDet(b), func(c *core.Config) {
			c.Pattern, c.Load = traffic.Transpose, 0.35
			c.Warmup, c.MaxCycles = z.msgs(300), int64(z.msgs(8000))
		})},
		{cfg: with(b, func(c *core.Config) { c.Load = 0.9 })},
		{cfg: with(b, func(c *core.Config) {
			c.Selection, c.Load = selection.NotifyMaxCredit, 0.5
			c.Burst = &traffic.Burst{OnFrac: 0.3, MeanOn: 200}
		})},
	}
}

// eventTwin is the point kernel-event shares with kernel-flow (LAPSES,
// uniform 0.2), up to the execution mode.
func eventTwin(seed int64, z sizing) core.Config {
	return with(base(seed, z, 300, 6000), func(c *core.Config) { c.EventMode = true })
}

func kernelEvent(seed int64, z sizing) []point {
	twin := eventTwin(seed, z)
	var cfgs []core.Config
	for _, arch := range []core.Config{twin, proudDet(twin)} {
		for _, load := range []float64{0.05, 0.1, 0.2, 0.3} {
			cfgs = append(cfgs, with(arch, func(c *core.Config) { c.Load = load }))
		}
	}
	cfgs = append(cfgs, with(twin, func(c *core.Config) { c.Dims = z.mesh(32); c.Load = 0.05 }))
	return flowing(cfgs)
}

// kernelShort visits 30 structures three times each in seeded order:
// {8x8, 16x16, 32x32} x ({es, full, meta-row} x {duato, xy, north-last}
// + interval/yx). The first touch of a structure builds its routing
// function and tables; the repeats hit the program's plumbing cache.
// (interval + xy passes Validate and then panics in table.NewInterval,
// so the deterministic algorithm here is yx.)
func kernelShort(seed int64, z sizing) []point {
	b := with(base(seed, z, 0, 100), func(c *core.Config) { c.Load = 0.05; c.Measure = 100 })
	var structs []core.Config
	for _, k := range []int{8, 16, 32} {
		for _, tb := range []table.Kind{table.KindES, table.KindFull, table.KindMetaRow} {
			for _, alg := range []core.Alg{core.AlgDuato, core.AlgXY, core.AlgNorthLast} {
				structs = append(structs, with(b, func(c *core.Config) { c.Dims, c.Table, c.Algorithm = z.mesh(k), tb, alg }))
			}
		}
		structs = append(structs, with(b, func(c *core.Config) { c.Dims, c.Table, c.Algorithm = z.mesh(k), table.KindInterval, core.AlgYX }))
	}
	visits := 3
	if z.small {
		visits = 1
	}
	var cfgs []core.Config
	for v := 0; v < visits; v++ {
		cfgs = append(cfgs, structs...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	return flowing(cfgs)
}

func flowing(cfgs []core.Config) []point {
	pts := make([]point, len(cfgs))
	for i, c := range cfgs {
		pts[i] = point{cfg: c, flowing: true}
	}
	return pts
}

// Grid shape shared by the four grid workloads: 52 unique points, then
// the LA+Duato series a second time (13 repeats the memo layer serves).
const (
	gridUnique  = 52
	gridRepeats = 13
)

// figureGrid is a figure's worth of points: 4 architectures
// {LA, no LA} x {XY, Duato} with static-xy selection, each over uniform,
// transpose and bit-reversal load axes.
func figureGrid(seed int64, z sizing, warmup, measure int) []point {
	b := with(base(seed, z, warmup, measure), func(c *core.Config) {
		c.Selection = selection.StaticXY
		// Every point below saturation finishes inside this budget; the
		// few past it (XY under bit-reversal 0.4) end on it instead of
		// running eight times longer for their last starved messages.
		c.MaxCycles = 3000
	})
	axes := []struct {
		pattern traffic.Kind
		loads   []float64
		flowTo  float64 // loads up to this are below saturation on every architecture
	}{
		{traffic.Uniform, []float64{0.1, 0.3, 0.5, 0.7, 0.9}, 0.5},
		{traffic.Transpose, []float64{0.1, 0.2, 0.3, 0.4}, 0.2},
		{traffic.BitReversal, []float64{0.1, 0.2, 0.3, 0.4}, 0.2},
	}
	series := func(la bool, alg core.Alg) []point {
		var pts []point
		for _, ax := range axes {
			for _, load := range ax.loads {
				c := with(b, func(c *core.Config) { c.LookAhead, c.Algorithm, c.Pattern, c.Load = la, alg, ax.pattern, load })
				pts = append(pts, point{cfg: c, flowing: load <= ax.flowTo})
			}
		}
		return pts
	}
	var pts []point
	for _, la := range []bool{true, false} {
		for _, alg := range []core.Alg{core.AlgXY, core.AlgDuato} {
			pts = append(pts, series(la, alg)...)
		}
	}
	return append(pts, series(true, core.AlgDuato)...)
}

func configs(pts []point) []core.Config {
	cfgs := make([]core.Config, len(pts))
	for i, p := range pts {
		cfgs[i] = p.cfg
	}
	return cfgs
}

// flitHops is the simulated work of one result: link traversals of
// measured flits. It is exact for a fixed seed.
func flitHops(c core.Config, r core.Result) float64 {
	return float64(r.Delivered) * r.AvgHops * float64(c.MsgLen)
}

// checkPoint returns why a point's outcome fails, or "".
func checkPoint(p point, r core.Result, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case p.flowing && r.Saturated:
		return "below-saturation point came back saturated: " + r.SatReason
	case p.flowing && r.Delivered != int64(p.cfg.Measure):
		return fmt.Sprintf("delivered %d of %d measured messages", r.Delivered, p.cfg.Measure)
	case r.NetLatency > r.AvgLatency:
		return fmt.Sprintf("network latency %g above total latency %g", r.NetLatency, r.AvgLatency)
	case r.P50 > r.P95 || r.P95 > r.P99:
		return fmt.Sprintf("latency percentiles out of order: %g %g %g", r.P50, r.P95, r.P99)
	}
	return ""
}

// roundResult is what one round of a workload measured. The times cover
// the timed region only, as measured and in calibrated seconds (see
// calib.go); everything else is filled in afterwards.
type roundResult struct {
	WallS     float64  `json:"wall_s"`
	CPUS      float64  `json:"cpu_s"`
	CalWallS  float64  `json:"cal_wall_s"`
	CalCPUS   float64  `json:"cal_cpu_s"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few, for the report

	// Simulated statistics of the results handed back, exact per seed.
	FlitHops      float64 `json:"flit_hops"`
	SimCycles     int64   `json:"sim_cycles"`
	SkippedCycles int64   `json:"skipped_cycles"`
	CRC           uint32  `json:"crc"` // of the canonical JSON of every result, in order

	// Counts read from the program after the round (cache hits, leases).
	Counters map[string]float64 `json:"counters,omitempty"`
	// JobMS is the latency of each job of a served-warm round.
	JobMS []float64 `json:"job_ms,omitempty"`
	// Set by fresh-process rounds only.
	MaxRSSKB int64  `json:"max_rss_kb,omitempty"`
	Spans    []span `json:"spans,omitempty"`
}

// wall is the round's wall-clock in calibrated seconds.
func (rr roundResult) wall(def *workloadDef) float64 {
	if def.TimerBound {
		return rr.WallS
	}
	return rr.CalWallS
}

// slowdownAttr is what a traced round's span carries: how much slower
// than the reference the box ran during it, so that the span times under
// it (which are as measured) can be read in calibrated seconds.
func (rr roundResult) slowdownAttr() map[string]float64 {
	return map[string]float64{"slowdown": rr.WallS / rr.CalWallS}
}

// add folds one operation's outcome into the round.
func (rr *roundResult) add(p point, r core.Result, err error) {
	rr.Attempted++
	if why := checkPoint(p, r, err); why != "" {
		rr.fail(fmt.Sprintf("%s: %s", p.cfg.Key(), why))
		return
	}
	rr.FlitHops += flitHops(p.cfg, r)
	rr.SimCycles += r.TotalCycles
	rr.SkippedCycles += r.SkippedCycles
	rr.CRC = crc32.Update(rr.CRC, crc32.IEEETable, canonical(r))
}

func (rr *roundResult) fail(why string) {
	rr.Failed = min(rr.Failed+1, rr.Attempted)
	if len(rr.Failures) < 5 {
		rr.Failures = append(rr.Failures, why)
	}
}

// failGrid counts n operations that never produced outcomes (the job
// errored, the service did not start) as attempted and failed.
func (rr *roundResult) failGrid(n int, why string) {
	rr.Attempted += n
	rr.Failed += n - 1
	rr.fail(why)
}

// failRound counts every operation of the round failed: its results as
// a whole were wrong (the simulated/cached split, the job's status).
func (rr *roundResult) failRound(why string) {
	rr.Failed = rr.Attempted - 1
	rr.fail(why)
}

// canonical is the byte form results are compared and digested in.
func canonical(r core.Result) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// JSON has no NaN or Inf; a result holding one still needs a
		// stable byte form to be compared in.
		return fmt.Appendf(nil, "%+v", r)
	}
	return b
}
