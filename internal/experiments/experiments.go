// Package experiments regenerates every table and figure of the LAPSES
// paper's evaluation: Fig. 5 (look-ahead and adaptivity vs load), Table 3
// (message-length sensitivity of look-ahead), Fig. 6 (path-selection
// heuristics), Table 4 (table-storage schemes), section 5's table
// programmings (Fig. 7, Fig. 8, an interval table) and Table 5 (storage
// summary). Each experiment declares its grid as data — an ordered list
// of core.Config points — and executes it through the concurrent
// internal/sweep engine, so sweeps scale with GOMAXPROCS (or an explicit
// Runner.Workers) and shared baselines memoize through Runner.Cache.
// Results render in the paper's format, so paper-vs-measured comparisons
// are mechanical.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"lapses/internal/core"
	"lapses/internal/routing"
	"lapses/internal/selection"
	"lapses/internal/sweep"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// Fidelity selects the sample sizes for all experiment runs.
type Fidelity int

const (
	// Quick uses small samples for smoke runs (seconds per point).
	Quick Fidelity = iota
	// Default balances precision and run time (the committed numbers).
	Default
	// Paper uses the paper's 10000 warm-up + 400000 measured messages.
	Paper
)

// ParseFidelity converts a name to a Fidelity.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "default":
		return Default, nil
	case "paper":
		return Paper, nil
	}
	return 0, fmt.Errorf("experiments: unknown fidelity %q (quick, default or paper)", s)
}

func (f Fidelity) apply(c core.Config) core.Config {
	switch f {
	case Quick:
		c.Warmup, c.Measure = 300, 3000
	case Default:
		c.Warmup, c.Measure = 2000, 30000
	case Paper:
		c.Warmup, c.Measure = 10000, 400000
	}
	return c
}

// Runner carries the execution options shared by every experiment sweep:
// sample fidelity, the random seed, worker-pool width and an optional
// memo cache. The zero Workers uses GOMAXPROCS; a non-nil Cache shared
// across experiments makes points that recur between figures (e.g.
// Fig. 5's LA-ADAPT baseline, which is also Fig. 6's STATIC-XY series)
// simulate exactly once.
type Runner struct {
	Fidelity Fidelity
	Seed     int64
	Workers  int
	Cache    *sweep.Cache

	// EventMode runs every point on the event-driven kernel: several
	// times the cycle rate, but not bit-comparable to cycle-mode runs, and
	// its mean latency runs a few percent low (README "Execution modes").
	// Configs key differently, so a shared Cache never mixes the two.
	EventMode bool

	// Exec, when non-nil, replaces in-process sweep.Run as the grid
	// executor — the lapses-serve client's Run plugs in here, routing
	// every experiment point (grids and saturation probes alike)
	// through a server's durable store.
	Exec sweep.RunFunc

	// run replaces core.Run in tests of the grid plumbing; nil means the
	// real simulator.
	run func(core.Config) (core.Result, error)
}

func (r Runner) opts() sweep.Options {
	return sweep.Options{Workers: r.Workers, Cache: r.Cache, Runner: r.run, Exec: r.Exec}
}

// base returns the shared 16x16 configuration (Table 2) used by all
// experiments.
func (r Runner) base() core.Config {
	c := core.DefaultConfig()
	c.Selection = selection.StaticXY
	c.Seed = r.Seed
	c.EventMode = r.EventMode
	return r.Fidelity.apply(c)
}

// grid is an experiment sweep declared as data: the ordered configs and
// saturation searches plus, per point, the row slot its result scatters
// into and, per search, the Cell it fills (grid.saturation).
type grid struct {
	cfgs     []core.Config
	sinks    []func(core.Result)
	searches []sweep.BisectSpec
	found    []*Cell
}

func (g *grid) add(c core.Config, sink func(core.Result)) {
	g.cfgs = append(g.cfgs, c)
	g.sinks = append(g.sinks, sink)
}

// run sweeps the grid's points — through opt.Exec when set, so a remote
// backend serves them — and then its searches, in lockstep through
// sweep.BisectAll (one executor call per round), and scatters results in
// declaration order. The first point error aborts (a config error means
// the harness built a bad grid), identified by its full config key so a
// failure in a thousand-point sweep names the exact simulation that
// died; a probe error names its load and key the same way.
func (g *grid) run(ctx context.Context, opt sweep.Options) error {
	exec := sweep.Run
	if opt.Exec != nil {
		exec = opt.Exec
	}
	outs, err := exec(ctx, g.cfgs, opt)
	if err != nil {
		return err
	}
	for i, o := range outs {
		if o.Err != nil {
			c := g.cfgs[i]
			return fmt.Errorf("experiments: point %d (%s load %.2f, key %s): %w", i, c.Pattern, c.Load, c.Key(), o.Err)
		}
		g.sinks[i](o.Result)
	}
	found, err := sweep.BisectAll(ctx, g.searches, opt)
	if err != nil {
		return err
	}
	for i, res := range found {
		g.found[i].Search = res
		g.found[i].Sat = res.LoResult
	}
	return nil
}

// patternLoads returns the load sweep the paper plots per pattern: dense
// points up to each pattern's saturation region.
func patternLoads(p traffic.Kind) []float64 {
	switch p {
	case traffic.Uniform:
		return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	case traffic.Transpose:
		return []float64{0.1, 0.2, 0.3, 0.4}
	case traffic.BitReversal:
		return []float64{0.1, 0.2, 0.3, 0.4}
	case traffic.Shuffle:
		return []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	return []float64{0.1, 0.2, 0.3}
}

// PaperPatterns are the four synthetic patterns of the study.
var PaperPatterns = []traffic.Kind{traffic.Uniform, traffic.Transpose, traffic.BitReversal, traffic.Shuffle}

// Fig5Row is one (pattern, load) point of Fig. 5: the absolute latency of
// the four router architectures.
type Fig5Row struct {
	Pattern traffic.Kind
	Load    float64
	// Latencies by architecture; NaN-free: saturated points carry the
	// Saturated flags instead.
	NoLADet, NoLAAdapt, LADet, LAAdapt core.Result
}

// fig5Archs is the architecture axis of Fig. 5, in column order, with
// each architecture's name in the record table (the column headers live
// in RenderFig5).
var fig5Archs = []struct {
	Name string
	LA   bool
	Alg  core.Alg
	Slot func(*Fig5Row) *core.Result
}{
	{"nola-det", false, core.AlgXY, func(r *Fig5Row) *core.Result { return &r.NoLADet }},
	{"nola-adapt", false, core.AlgDuato, func(r *Fig5Row) *core.Result { return &r.NoLAAdapt }},
	{"la-det", true, core.AlgXY, func(r *Fig5Row) *core.Result { return &r.LADet }},
	{"la-adapt", true, core.AlgDuato, func(r *Fig5Row) *core.Result { return &r.LAAdapt }},
}

// Fig5 runs the four-architecture comparison (deterministic/adaptive with
// and without look-ahead, static-XY selection) over the paper's load
// sweeps for all four traffic patterns.
func (r Runner) Fig5(ctx context.Context) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, pat := range PaperPatterns {
		for _, load := range patternLoads(pat) {
			rows = append(rows, Fig5Row{Pattern: pat, Load: load})
		}
	}
	var g grid
	for i := range rows {
		row := &rows[i]
		for _, arch := range fig5Archs {
			c := r.base()
			c.LookAhead = arch.LA
			c.Algorithm = arch.Alg
			c.Pattern = row.Pattern
			c.Load = row.Load
			slot := arch.Slot(row)
			g.add(c, func(res core.Result) { *slot = res })
		}
	}
	if err := g.run(ctx, r.opts()); err != nil {
		return nil, err
	}
	return rows, nil
}

// pctOver returns the percentage latency increase of r over baseline, the
// quantity Fig. 5's bars plot.
func pctOver(r, baseline core.Result) (float64, bool) {
	if r.Saturated || baseline.Saturated || baseline.AvgLatency == 0 {
		return 0, false
	}
	return 100 * (r.AvgLatency - baseline.AvgLatency) / baseline.AvgLatency, true
}

// RenderFig5 prints the Fig. 5 panels: percentage increase over LA-ADAPT
// per architecture, plus the absolute LA-ADAPT latency table printed under
// the figure in the paper.
func RenderFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Figure 5: % latency increase over LA,ADAPT (positive = slower than LA-adaptive)")
	for _, pat := range PaperPatterns {
		fmt.Fprintf(w, "\n[%s traffic]\n", pat)
		fmt.Fprintf(w, "%-6s %12s %12s %12s %14s\n", "load", "NOLA,DET", "NOLA,ADAPT", "LA,DET", "LA,ADAPT(abs)")
		for _, r := range rows {
			if r.Pattern != pat {
				continue
			}
			cell := func(res core.Result) string {
				p, ok := pctOver(res, r.LAAdapt)
				if !ok {
					return "Sat."
				}
				return fmt.Sprintf("%+.1f%%", p)
			}
			fmt.Fprintf(w, "%-6.1f %12s %12s %12s %14s\n",
				r.Load, cell(r.NoLADet), cell(r.NoLAAdapt), cell(r.LADet), r.LAAdapt.LatencyString())
		}
	}
}

// Table3Row is one message-length point of Table 3.
type Table3Row struct {
	MsgLen               int
	LookAhead, NoLookAhd core.Result
}

// Improvement returns the paper's "% Improv." column.
func (r Table3Row) Improvement() float64 {
	if r.NoLookAhd.AvgLatency == 0 {
		return 0
	}
	return 100 * (r.NoLookAhd.AvgLatency - r.LookAhead.AvgLatency) / r.NoLookAhd.AvgLatency
}

// table3Lengths is the message-length axis of Table 3.
var table3Lengths = []int{5, 10, 20, 50}

// Table3 measures the look-ahead benefit versus message length (uniform
// traffic, normalized load 0.2, adaptive routers).
func (r Runner) Table3(ctx context.Context) ([]Table3Row, error) {
	rows := make([]Table3Row, len(table3Lengths))
	var g grid
	for i, length := range table3Lengths {
		rows[i].MsgLen = length
		row := &rows[i]
		for _, la := range []bool{true, false} {
			c := r.base()
			c.LookAhead = la
			c.Pattern = traffic.Uniform
			c.Load = 0.2
			c.MsgLen = length
			slot := &row.NoLookAhd
			if la {
				slot = &row.LookAhead
			}
			g.add(c, func(res core.Result) { *slot = res })
		}
	}
	if err := g.run(ctx, r.opts()); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable3 prints Table 3 in the paper's format.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: Impact of message length (uniform traffic, load 0.2)")
	fmt.Fprintf(w, "%-10s %12s %14s %10s\n", "Mesg. Len", "Look Ahead", "No Look Ahead", "% Improv.")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %12s %14s %10.1f\n",
			r.MsgLen, r.LookAhead.LatencyString(), r.NoLookAhd.LatencyString(), r.Improvement())
	}
}

// Fig6Row is one (pattern, load) point of Fig. 6: absolute latency per
// path-selection heuristic on the LA adaptive router.
type Fig6Row struct {
	Pattern traffic.Kind
	Load    float64
	ByPSH   map[selection.Kind]core.Result
}

// Fig6PSHs are the five policies Fig. 6 plots.
var Fig6PSHs = []selection.Kind{selection.StaticXY, selection.MinMux, selection.LFU, selection.LRU, selection.MaxCredit}

// Fig6 sweeps the path-selection heuristics over the four patterns.
func (r Runner) Fig6(ctx context.Context) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, pat := range PaperPatterns {
		for _, load := range patternLoads(pat) {
			rows = append(rows, Fig6Row{Pattern: pat, Load: load, ByPSH: map[selection.Kind]core.Result{}})
		}
	}
	var g grid
	for i := range rows {
		row := &rows[i]
		for _, psh := range Fig6PSHs {
			c := r.base()
			c.Pattern = row.Pattern
			c.Load = row.Load
			c.Selection = psh
			psh := psh
			g.add(c, func(res core.Result) { row.ByPSH[psh] = res })
		}
	}
	if err := g.run(ctx, r.opts()); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFig6 prints the Fig. 6 series.
func RenderFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Figure 6: average latency by path-selection heuristic (LA adaptive router)")
	for _, pat := range PaperPatterns {
		fmt.Fprintf(w, "\n[%s traffic]\n", pat)
		fmt.Fprintf(w, "%-6s", "load")
		for _, psh := range Fig6PSHs {
			fmt.Fprintf(w, " %11s", psh)
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			if r.Pattern != pat {
				continue
			}
			fmt.Fprintf(w, "%-6.1f", r.Load)
			for _, psh := range Fig6PSHs {
				fmt.Fprintf(w, " %11s", r.ByPSH[psh].LatencyString())
			}
			fmt.Fprintln(w)
		}
	}
}

// Table4Row is one (pattern, load) point of Table 4.
type Table4Row struct {
	Pattern                     traffic.Kind
	Load                        float64
	MetaAdaptive, MetaDet, Full core.Result
	ES                          core.Result
}

// Table4Patterns are the patterns Table 4 reports.
var Table4Patterns = []traffic.Kind{traffic.Uniform, traffic.Transpose, traffic.BitReversal}

// table4Loads mirrors the loads the paper lists per pattern.
func table4Loads(p traffic.Kind) []float64 {
	switch p {
	case traffic.Uniform:
		return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	case traffic.Transpose:
		return []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	default: // bit-reversal
		return []float64{0.1, 0.2, 0.3, 0.4}
	}
}

// table4Schemes is the storage-scheme axis of Table 4, in column order,
// with each scheme's name in the record table.
var table4Schemes = []struct {
	Name string
	Kind table.Kind
	Slot func(*Table4Row) *core.Result
}{
	{"meta-adaptive", table.KindMetaBlock, func(r *Table4Row) *core.Result { return &r.MetaAdaptive }},
	{"meta-det", table.KindMetaRow, func(r *Table4Row) *core.Result { return &r.MetaDet }},
	{"full", table.KindFull, func(r *Table4Row) *core.Result { return &r.Full }},
	{"es", table.KindES, func(r *Table4Row) *core.Result { return &r.ES }},
}

// Table4 compares the table-storage schemes: meta-table with the maximal-
// flexibility (block) mapping, meta-table with the minimal (row) mapping,
// full-table and economical storage, all on the LA adaptive router with
// static-XY selection.
func (r Runner) Table4(ctx context.Context) ([]Table4Row, error) {
	var rows []Table4Row
	for _, pat := range Table4Patterns {
		for _, load := range table4Loads(pat) {
			rows = append(rows, Table4Row{Pattern: pat, Load: load})
		}
	}
	var g grid
	for i := range rows {
		row := &rows[i]
		for _, scheme := range table4Schemes {
			c := r.base()
			c.Pattern = row.Pattern
			c.Load = row.Load
			c.Table = scheme.Kind
			c.Algorithm = core.AlgDuato
			slot := scheme.Slot(row)
			g.add(c, func(res core.Result) { *slot = res })
		}
	}
	if err := g.run(ctx, r.opts()); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable4 prints Table 4 in the paper's format, with both the full
// table and ES columns (the paper prints them as one since they are
// identical; we print both to demonstrate it).
func RenderTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: Performance comparison of table-storage schemes (Sat. = saturated)")
	fmt.Fprintf(w, "%-13s %-5s %12s %12s %12s %12s\n", "Traffic", "Load", "Meta-Adp", "Meta-Det", "Full-Tbl", "Econ-Stor")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-5.1f %12s %12s %12s %12s\n",
			r.Pattern, r.Load,
			r.MetaAdaptive.LatencyString(), r.MetaDet.LatencyString(),
			r.Full.LatencyString(), r.ES.LatencyString())
	}
}

// programmed returns the mesh, and the routing function and VC partition
// (core.Config.Routing), of the default config on dims under algorithm a.
// The views below program fixed healthy configs, so an error is a bug.
func programmed(dims []int, a core.Alg) (*topology.Mesh, routing.Algorithm, routing.Class) {
	c := core.DefaultConfig()
	c.Dims, c.Algorithm = dims, a
	alg, cls, err := c.Routing()
	if err != nil {
		panic(err)
	}
	return c.Mesh(), alg, cls
}

// renderFig7 prints Fig. 7, the economical-storage table at node (1,1) of
// a 3x3 mesh, once per algorithm of core.Algs. A mesh's ES row is the same
// at every router, so the structure's shared row is node (1,1)'s table.
func renderFig7(w io.Writer) {
	for i, a := range core.Algs {
		m, alg, cls := programmed([]int{3, 3}, a)
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "Fig. 7: economical-storage table at node (1,1) of a 3x3 mesh, %s routing\n", alg.Name())
		fmt.Fprintf(w, "(sign of destination offset (sx,sy) -> permitted output ports; %d entries)\n\n", table.KindES.Entries(m))
		fmt.Fprint(w, table.Program(table.KindES, m, alg, cls).Dump())
	}
}

// renderFig8 prints Fig. 8, the row and block meta-table mappings of a
// 16x16 mesh programmed for Duato routing.
func renderFig8(w io.Writer) {
	m, alg, cls := programmed([]int{16, 16}, core.AlgDuato)
	fmt.Fprintln(w, "Fig. 8(a): row mapping (minimal flexibility; cluster/label per node, top row = y15)")
	fmt.Fprintln(w, table.NewMeta(m, alg, cls, table.MapRow).DumpMapping())
	fmt.Fprintln(w, "Fig. 8(b): block mapping (maximal flexibility)")
	fmt.Fprintln(w, table.NewMeta(m, alg, cls, table.MapBlock).DumpMapping())
}

// renderInterval prints the interval table of node (3,3) of an 8x8 mesh
// under YX routing: the row-major label run each port covers.
func renderInterval(w io.Writer) {
	m, alg, _ := programmed([]int{8, 8}, core.AlgYX)
	lo, hi, err := table.Intervals(m, alg, m.ID(topology.Coord{3, 3}))
	if err != nil {
		panic(err) // YX on a mesh is one label run per port
	}
	fmt.Fprintf(w, "Interval table for node (3,3) of %s, YX routing:\n", m)
	for p := range lo {
		if lo[p] > hi[p] {
			fmt.Fprintf(w, "  %-3s  (unused)\n", m.PortName(topology.Port(p)))
			continue
		}
		fmt.Fprintf(w, "  %-3s  labels [%d, %d]\n", m.PortName(topology.Port(p)), lo[p], hi[p])
	}
}

// Table5Row summarizes one storage scheme (Table 5).
type Table5Row struct {
	Scheme      string
	Entries     int
	Scalability string
	Adaptivity  string
	Topology    string
}

// Table5 computes the storage comparison for an n-node network of the
// given dimensionality, using the entry counts of the actual table
// implementations.
func Table5(nodes, ndims int) []Table5Row {
	clusters := 0
	// Two-level meta split: sqrt-ish cluster count, as in the paper's
	// m*2^(N/m) expression with m = 2.
	for c := 1; c*c <= nodes; c++ {
		if nodes%c == 0 {
			clusters = c
		}
	}
	return []Table5Row{
		{"full-table", nodes, "poor", "yes", "arbitrary"},
		{"meta-table (2-level)", clusters + nodes/clusters, "better", "yes (limited)", "fairly arbitrary"},
		{"interval", 1 + 2*ndims, "great", "not direct", "arbitrary"},
		{"economical storage", table.ESEntryCount(ndims), "great", "yes", "meshes, tori"},
	}
}

// RenderTable5 prints the storage summary.
func RenderTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5: table-storage schemes for the configured network")
	fmt.Fprintf(w, "%-22s %10s %-12s %-14s %-16s\n", "Scheme", "Entries", "Scalability", "Adaptivity", "Topology")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %10d %-12s %-14s %-16s\n", r.Scheme, r.Entries, r.Scalability, r.Adaptivity, r.Topology)
	}
}

// experiment is one row of the registry: everything the package
// and its command know about a runnable experiment.
type experiment struct {
	name string
	// run simulates the experiment once under the runner's seed and
	// returns its two output forms: render prints it in the paper's
	// format, and records is its record table, nil when it has none (the
	// reference tables, the table programmings and the storage summary).
	run func(context.Context, Runner) (render func(io.Writer), records [][]string, err error)
	// repCols names the record table's metric columns, the ones
	// replications aggregate (see the schema note in csv.go).
	repCols []string
}

// static is an experiment that simulates nothing.
func static(name string, render func(io.Writer)) experiment {
	return experiment{name: name, run: func(context.Context, Runner) (func(io.Writer), [][]string, error) {
		return render, nil, nil
	}}
}

// swept is an experiment whose rows come out of a sweep: run produces
// them, render and records are its two output forms.
func swept[R any](name string, run func(Runner, context.Context) ([]R, error),
	render func(io.Writer, []R), records func([]R) [][]string, repCols ...string) experiment {
	return experiment{
		name: name,
		run: func(ctx context.Context, r Runner) (func(io.Writer), [][]string, error) {
			rows, err := run(r, ctx)
			if err != nil {
				return nil, nil, err
			}
			return func(w io.Writer) { render(w, rows) }, records(rows), nil
		},
		repCols: repCols,
	}
}

// registry is the one list of what can be run, in "-exp all" order. Names,
// RunByName and the command's help all read it; a new experiment is a new
// row.
var registry = []experiment{
	static("table1", func(w io.Writer) { RenderTable1(w, Table1()) }),
	static("table2", func(w io.Writer) { RenderTable2(w, core.DefaultConfig()) }),
	swept("fig5", Runner.Fig5, RenderFig5, fig5Records, "avg_latency", "throughput"),
	swept("table3", Runner.Table3, RenderTable3, table3Records, "lookahead_latency", "no_lookahead_latency", "improvement_pct"),
	swept("fig6", Runner.Fig6, RenderFig6, fig6Records, "avg_latency", "throughput"),
	swept("table4", Runner.Table4, RenderTable4, table4Records, "avg_latency"),
	static("fig7", renderFig7),
	static("fig8", renderFig8),
	static("interval", renderInterval),
	static("table5", func(w io.Writer) {
		RenderTable5(w, Table5(256, 2))
		fmt.Fprintln(w)
		RenderTable5(w, Table5(2048, 3))
	}),
	swept("resilience", Runner.Resilience, RenderResilience, resilienceRecords, "avg_latency", "sat_load", "sat_throughput"),
	swept("scaling", Runner.Scaling, RenderScaling, scalingRecords, "sat_load", "sat_throughput", "overdriven_throughput"),
	swept("congestion", Runner.Congestion, RenderCongestion, congestionRecords, "avg_latency", "ovr_throughput", "sat_load", "sat_throughput"),
	swept("availability", Runner.Availability, RenderAvailability, availabilityRecords, "delivered_fraction", "p99_latency"),
}

// Names lists the runnable experiment identifiers, in "-exp all" order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// find looks an experiment up by identifier, case-insensitively.
func find(name string) (experiment, error) {
	for _, e := range registry {
		if strings.EqualFold(e.name, name) {
			return e, nil
		}
	}
	names := Names()
	sort.Strings(names)
	return experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", name, strings.Join(names, ", "))
}

// RunByName executes one experiment by identifier. It runs the
// experiment's grid once per seed, reps times under derived seeds (reps
// < 1 counts as one), renders rep 0 to w and returns the record table:
// rep 0's records plus, when reps > 1, mean and stderr columns over all
// reps (see the schema note in csv.go). An experiment without a record
// form runs once and returns nil.
func (r Runner) RunByName(ctx context.Context, w io.Writer, name string, reps int) ([][]string, error) {
	e, err := find(name)
	if err != nil {
		return nil, err
	}
	render, recs, err := e.run(ctx, r)
	if err != nil {
		return nil, err
	}
	render(w)
	if recs == nil || reps <= 1 {
		return recs, nil
	}
	all := [][][]string{recs}
	for rep := 1; rep < reps; rep++ {
		rr := r
		rr.Seed = r.Seed + int64(rep)*repSeedStride
		_, recs, err := e.run(ctx, rr)
		if err != nil {
			return nil, fmt.Errorf("experiments: rep %d: %w", rep, err)
		}
		if len(recs) != len(all[0]) {
			return nil, fmt.Errorf("experiments: rep %d produced %d rows, rep 0 produced %d", rep, len(recs), len(all[0]))
		}
		all = append(all, recs)
	}
	return replicate(name, all, e.repCols)
}
