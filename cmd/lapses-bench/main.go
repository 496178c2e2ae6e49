// Command lapses-bench measures simulator performance and writes a JSON
// snapshot of the perf trajectory: wall time per sweep point, simulated
// cycles per second, allocations per run, and sweep-engine points/sec.
// Each PR records a BENCH_<date>.json so regressions and wins are
// provable against history rather than anecdotes.
//
//	lapses-bench                  # full suite -> BENCH_<today>.json
//	lapses-bench -quick -out b.json
//	lapses-bench -quick -compare BENCH_2026-07-26.json -tolerance 0.25
//
// -compare diffs the fresh measurements against a committed baseline
// snapshot, printing per-entry ns/op and allocs/op deltas, and exits
// non-zero when any shared entry regressed past -tolerance — the CI
// guard that keeps hot-path regressions from drifting in silently.
//
// Methodology: every case runs in a warm process (caches primed by one
// untimed run), for -mintime per case, with a fixed seed — the regime a
// sweep point lives in, where one structural configuration is reused
// across the whole load axis. Each entry records the GOMAXPROCS it ran
// under, since that changes what ns/op means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"lapses/internal/core"
	"lapses/internal/experiments"
	"lapses/internal/fault"
	"lapses/internal/selection"
	"lapses/internal/sweep"
	"lapses/internal/traffic"
)

// entry is one benchmark case in the snapshot.
type entry struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
	// Gomaxprocs records the machine class the entry was measured on: an
	// ns/op delta is only meaningful between entries with the same value.
	Gomaxprocs int `json:"gomaxprocs"`
	// SkippedFrac is the fraction of simulated cycles the idle-cycle
	// fast-forward jumped over (simulation entries only).
	SkippedFrac float64 `json:"skipped_frac,omitempty"`
	// SimulatedCyclesTotal is the total simulated cycles across all
	// timed iterations of the entry (schema 3) — the denominator
	// cycles/sec is computed over, and the number the adaptive-
	// measurement entries exist to shrink.
	SimulatedCyclesTotal int64 `json:"simulated_cycles_total,omitempty"`
	// EventMode records that the entry ran the event-driven execution
	// mode (schema 4) rather than the cycle-accurate kernel.
	EventMode bool `json:"event_mode,omitempty"`
	// Bursty and Notify record the congestion-experiment regime (schema
	// 5): bursty MMPP sources in place of the stationary Poisson process,
	// and a notification (Notify*) selection policy in place of a purely
	// local one.
	Bursty bool `json:"bursty,omitempty"`
	Notify bool `json:"notify,omitempty"`
	// Scheduled records a transient-fault-schedule run (schema 6):
	// mid-run epoch transitions with route reconvergence and the
	// reconfiguration drain on the per-cycle path's books.
	Scheduled bool `json:"scheduled,omitempty"`
}

// snapshot is the BENCH_<date>.json schema. Schema 2 added per-entry
// gomaxprocs/skipped_frac; schema 3 adds simulated_cycles_total
// and the sweep/16pt/auto + bisect/16x16 entries; schema 4 adds
// event_mode and the sim/16x16/.../events entries; schema 5 adds
// bursty/notify and the sim/16x16/load=0.20/bursty[...] entries; schema
// 6 adds scheduled and the sim/16x16/load=0.20/schedule entry; schema 7
// drops the per-run parallelism field and the entries that varied it
// (sim/32x32/load=0.50 is the former single-band entry). Older baselines
// still load for comparison; fields this schema no longer has are
// ignored.
type snapshot struct {
	Schema     int     `json:"schema"`
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Entries    []entry `json:"entries"`
}

func main() {
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	quick := flag.Bool("quick", false, "single timed iteration per case (CI smoke)")
	minTime := flag.Duration("mintime", 2*time.Second, "minimum measurement time per case")
	compare := flag.String("compare", "", "baseline snapshot to diff against; regressions past -tolerance exit non-zero")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional regression per entry for -compare (0.25 = 25%)")
	allowMissing := flag.Bool("allow-missing", false, "tolerate baseline entries the current run no longer measures (intentional bench removals)")
	flag.Parse()
	if *minTime < 0 {
		fatal(fmt.Errorf("-mintime %s: measurement time must not be negative", *minTime))
	}
	if *tolerance < 0 {
		fatal(fmt.Errorf("-tolerance %g: allowed regression fraction must not be negative", *tolerance))
	}
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}
	if *quick {
		*minTime = 0
	}

	snap := snapshot{
		Schema:     7,
		Date:       time.Now().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	sim := func(name string, c core.Config) {
		var skipped, total int64
		e := measure(name, *minTime, func() int64 {
			r, err := core.Run(c)
			if err != nil {
				fatal(err)
			}
			skipped += r.SkippedCycles
			total += r.TotalCycles
			return r.TotalCycles
		})
		e.EventMode = c.EventMode
		e.Bursty = c.Burst != nil
		e.Notify = c.Selection.IsNotify()
		e.Scheduled = c.Schedule != nil
		if total > 0 {
			e.SkippedFrac = float64(skipped) / float64(total)
		}
		snap.Entries = append(snap.Entries, e)
	}

	// Sweep points across the load axis: 0.05 is the low-load regime
	// where the active-set scheduler's idle-skip dominates, 0.5 a loaded
	// steady state, 0.2 the paper's workhorse operating point.
	for _, load := range []float64{0.05, 0.2, 0.5} {
		sim(fmt.Sprintf("sim/16x16/load=%.2f", load), simPoint(load))
	}

	// Near-idle regime: at load 0.005 the 16x16 network is globally empty
	// most of the time, the operating point idle-cycle fast-forward is
	// built for (at 0.05 the mesh still holds ~9 in-flight messages, so
	// there is almost nothing to skip — see skipped_frac in the entries).
	sim("sim/16x16/load=0.005", simPoint(0.005))

	// The largest mesh of the scaling experiment at a loaded steady state:
	// the per-cycle cost of a thousand routers.
	{
		c := simPoint(0.5)
		c.Dims = []int{32, 32}
		sim("sim/32x32/load=0.50", c)
	}

	// Event-driven execution at the same operating points: worm events and
	// the express path versus the cycle-accurate kernel. The 0.05 entry is
	// the acceptance point of the event-mode issue (the regime express was
	// built for); 0.2 shows how the win shrinks as contention forces the
	// fallback pipeline.
	for _, load := range []float64{0.05, 0.2} {
		c := simPoint(load)
		c.EventMode = true
		sim(fmt.Sprintf("sim/16x16/load=%.2f/events", load), c)
	}

	// Bursty MMPP sources and notification selection at the workhorse
	// operating point (schema 5): the congestion-experiment regime. The
	// bursty entry isolates the MMPP source cost against the plain
	// load=0.20 entry; the notify entry layers the credit-piggybacked
	// congestion tracking and the Notify selector's filtering pass on the
	// same bursty workload.
	{
		c := simPoint(0.2)
		c.Burst = &traffic.Burst{OnFrac: 0.3, MeanOn: 200}
		sim("sim/16x16/load=0.20/bursty", c)
		c.Selection = selection.NotifyMaxCredit
		sim("sim/16x16/load=0.20/bursty/notify", c)
	}

	// Transient fault schedule at the workhorse operating point (schema
	// 6): four mid-run transitions (two links down and healing, staggered
	// inside the measured interval) with live route reconvergence and the
	// reconfiguration drain. Against the plain load=0.20 entry this
	// isolates what a scheduled run costs per cycle: the schedule-presence
	// checks on the hot path plus the transitions themselves.
	{
		c := simPoint(0.2)
		sched, err := fault.ParseSchedule(c.Mesh(), "119-120@400:1100,135-136@450:1150")
		if err != nil {
			fatal(err)
		}
		c.Schedule = sched
		sim("sim/16x16/load=0.20/schedule", c)
	}

	// Construction cost: what every sweep point pays before cycle zero.
	{
		c := simPoint(0.05)
		c.Warmup, c.Measure = 0, 1
		sim("construct/16x16", c)
	}

	// Sweep-engine throughput: a 16-point grid through the concurrent
	// runner, the shape of every figure and table regeneration. Three
	// variants: the historical tiny-sample grid (trend continuity back
	// to schema 1), and an apples-to-apples pair at a default-tier-like
	// 300+6000 budget — fixed versus the adaptive measurement tier,
	// whose simulated_cycles_total shows what MSER-5 truncation plus
	// CI-based early stopping buys per point.
	sweepGrid := func(budget, auto bool) []core.Config {
		var grid []core.Config
		for _, pat := range []traffic.Kind{traffic.Uniform, traffic.Transpose} {
			for _, load := range []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4} {
				c := simPoint(load)
				c.Pattern = pat
				if budget {
					c.Warmup, c.Measure = 300, 6000
				}
				if auto {
					c.Auto = &core.AutoMeasure{RelTol: 0.05}
				}
				grid = append(grid, c)
			}
		}
		return grid
	}
	for _, v := range []struct {
		name         string
		budget, auto bool
	}{
		{"sweep/16pt", false, false},
		{"sweep/16pt/fixed6k", true, false},
		{"sweep/16pt/auto", true, true},
	} {
		grid := sweepGrid(v.budget, v.auto)
		name := v.name
		e := measure(name, *minTime, func() int64 {
			outs, err := sweep.Run(context.Background(), grid, sweep.Options{})
			if err != nil {
				fatal(err)
			}
			var cycles int64
			for _, o := range outs {
				if o.Err != nil {
					fatal(o.Err)
				}
				cycles += o.Result.TotalCycles
			}
			return cycles
		})
		e.PointsPerSec = float64(len(grid)) / (e.NsPerOp / 1e9)
		snap.Entries = append(snap.Entries, e)
	}

	// Saturation search: one 16x16 bisection (experiments.SaturationSpec
	// probes, fresh cache per iteration so every probe really runs) —
	// the engine behind the resilience and scaling experiments.
	{
		base := simPoint(0.2)
		base.Warmup, base.Measure = 300, 6000
		spec := experiments.SaturationSpec(base, 0.1, 1.0, 0.04)
		e := measure("bisect/16x16", *minTime, func() int64 {
			res, err := sweep.Bisect(context.Background(), spec, sweep.Options{Cache: sweep.NewCache()})
			if err != nil {
				fatal(err)
			}
			if !res.Converged {
				fatal(fmt.Errorf("bench bisect did not converge: %s", res))
			}
			return res.SimulatedCycles
		})
		snap.Entries = append(snap.Entries, e)
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, e := range snap.Entries {
		fmt.Printf("%-28s %12.0f ns/op %14.0f cycles/sec %10.0f allocs/op\n",
			e.Name, e.NsPerOp, e.CyclesPerSec, e.AllocsPerOp)
	}

	if *compare != "" {
		if !compareBaseline(snap, *compare, *tolerance, *allowMissing) {
			os.Exit(1)
		}
	}
}

// compareBaseline loads the baseline snapshot at path and diffs the fresh
// measurements against it (see compareSnapshots).
func compareBaseline(cur snapshot, path string, tol float64, allowMissing bool) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var base snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing baseline %s: %w", path, err))
	}
	fmt.Printf("\ncompare vs %s (tolerance %.0f%%):\n", path, tol*100)
	return compareSnapshots(os.Stdout, cur, base, tol, allowMissing)
}

// compareSnapshots prints per-entry deltas against the baseline snapshot
// and reports whether the gate passes: every shared entry within
// tolerance, and every baseline entry still measured.
//
// allocs/op is always gated: allocation counts are deterministic across
// machines. ns/op is gated only when the entry's GOMAXPROCS matches the
// baseline's — wall time measured on a different machine class (a CI
// runner vs the dev box) varies for reasons that are not regressions, so
// there it prints informationally. Entries new in this snapshot have no
// baseline to regress against and warn only — failing them would force a
// baseline regenerated in the same commit as every bench-suite addition.
// Baseline entries the current run no longer measures FAIL the gate
// unless allowMissing: a silently dropped entry is dropped perf coverage,
// which is exactly the drift -compare exists to catch (pass
// -allow-missing when retiring a bench intentionally).
func compareSnapshots(w io.Writer, cur, base snapshot, tol float64, allowMissing bool) bool {
	baseByName := make(map[string]entry, len(base.Entries))
	for _, e := range base.Entries {
		baseByName[e.Name] = e
	}
	ok := true
	for _, e := range cur.Entries {
		b, found := baseByName[e.Name]
		if !found {
			fmt.Fprintf(w, "%-28s warning: no baseline entry; skipped\n", e.Name)
			continue
		}
		delete(baseByName, e.Name)
		bProcs := b.Gomaxprocs
		if bProcs == 0 {
			bProcs = base.GOMAXPROCS // schema-1 entries carry it snapshot-wide
		}
		sameMachine := bProcs == e.Gomaxprocs
		nsDelta := frac(e.NsPerOp, b.NsPerOp)
		alDelta := frac(e.AllocsPerOp, b.AllocsPerOp)
		verdict := "ok"
		if alDelta > tol || (sameMachine && nsDelta > tol) {
			verdict = "REGRESSED"
			ok = false
		}
		note := ""
		if !sameMachine {
			note = fmt.Sprintf(" (ns/op informational: baseline gomaxprocs=%d, now %d)", bProcs, e.Gomaxprocs)
		}
		fmt.Fprintf(w, "%-28s ns/op %+7.1f%%  allocs/op %+7.1f%%  %s%s\n",
			e.Name, nsDelta*100, alDelta*100, verdict, note)
	}
	for name := range baseByName {
		if allowMissing {
			fmt.Fprintf(w, "%-28s warning: baseline entry not measured (renamed or removed); allowed by -allow-missing\n", name)
			continue
		}
		fmt.Fprintf(w, "%-28s MISSING: baseline entry not measured (renamed or removed); pass -allow-missing if intentional\n", name)
		ok = false
	}
	if !ok {
		fmt.Fprintf(w, "FAIL: regression beyond %.0f%% tolerance or missing baseline entries\n", tol*100)
	}
	return ok
}

// frac returns (cur-base)/base, treating a zero baseline as no change.
func frac(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base
}

// simPoint is the canonical benchmark configuration: the 16x16 paper mesh
// with a reduced sample size, fixed seed, static selection.
func simPoint(load float64) core.Config {
	c := core.DefaultConfig()
	c.Selection = selection.StaticXY
	c.Load = load
	c.Warmup, c.Measure = 100, 1000
	c.Seed = 1
	return c
}

// measure runs once untimed (to prime process-lifetime caches), then
// repeats the case until minTime has elapsed, reading allocation counters
// around the timed region.
func measure(name string, minTime time.Duration, once func() int64) entry {
	once() // warm plumbing, seed, and memo caches

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var cycles int64
	iters := 0
	for {
		cycles += once()
		iters++
		if time.Since(start) >= minTime {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	return entry{
		Name:                 name,
		Iterations:           iters,
		NsPerOp:              float64(elapsed.Nanoseconds()) / float64(iters),
		CyclesPerSec:         float64(cycles) / elapsed.Seconds(),
		AllocsPerOp:          float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:           float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		Gomaxprocs:           runtime.GOMAXPROCS(0),
		SimulatedCyclesTotal: cycles,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lapses-bench:", err)
	os.Exit(2)
}
