package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// childEnv marks a process started by the benchmark itself. bench_test.go
// uses it to turn the test binary into the benchmark when re-executed.
const childEnv = "LAPSES_BENCHMARK_CHILD"

// metricValue is how one metric is printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOpts are the command-line settings of one workload run.
type runOpts struct {
	seconds float64
	out     string // directory for trace files
	env     runEnv
}

// childArgs are the flags that make a child see the same inputs.
func (o runOpts) childArgs(def *workloadDef, phase string, traced bool) []string {
	args := []string{"-phase", phase, "-workload", def.Name, "-seed", strconv.FormatInt(o.env.seed, 10),
		"-store", o.env.store, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if o.env.z.small {
		args = append(args, "-small")
	}
	return args
}

// startChild re-executes this binary and returns its stdout.
func startChild(args []string) (*exec.Cmd, *bufio.Reader, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	return cmd, bufio.NewReader(out), nil
}

// lastLine drains r and returns its last non-empty line.
func lastLine(r *bufio.Reader) string {
	last := ""
	for {
		line, err := r.ReadString('\n')
		if s := strings.TrimSpace(line); s != "" {
			last = s
		}
		if err != nil {
			return last
		}
	}
}

// setupReady is the line a set-up child prints when the timed region
// could start.
const setupReady = "ready"

// setupPhase is the body of a set-up child: everything between process
// start and the start of the timed region, then tear-down.
func setupPhase(def *workloadDef, env *runEnv, stdout io.Writer) error {
	inst, err := def.setup(env)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, setupReady)
	inst.close()
	return nil
}

// measureSetup times set-up in fresh processes, from the moment the
// child is started to the moment it reports ready, each in calibrated
// seconds, and returns the median: three samples, five when set-up is
// short enough to afford them, fifteen when it is little more than
// starting the process.
func measureSetup(def *workloadDef, o runOpts) (float64, error) {
	calib := o.env.cal.sample()
	var secs []float64
	for n := 3; len(secs) < n; {
		t := time.Now()
		cmd, out, err := startChild(o.childArgs(def, "setup", false))
		if err != nil {
			return 0, err
		}
		line, _ := out.ReadString('\n')
		took := time.Since(t).Seconds()
		io.Copy(io.Discard, out)
		if err := cmd.Wait(); err != nil || strings.TrimSpace(line) != setupReady {
			return 0, fmt.Errorf("set-up child of %s: %v (said %q)", def.Name, err, line)
		}
		after := calib
		if took >= 0.02 { // a shorter set-up is over before the box's speed can change
			after = o.env.cal.sample()
		}
		secs = append(secs, took/slowdown(calib, after))
		calib = after
		switch {
		case len(secs) > 1 || o.env.z.small:
		case took < 0.02:
			n = 15
		case took < 0.25:
			n = 5
		}
	}
	return median(secs), nil
}

// roundPhase is the body of a fresh-process round: set-up, one round,
// and the round's measurements on stdout.
func roundPhase(def *workloadDef, env *runEnv, stdout io.Writer) error {
	inst, err := def.setup(env)
	if err != nil {
		return err
	}
	defer inst.close()
	var tr *tracer
	var sc *scope
	if env.traced {
		tr = newTracer("round", "")
		sc = &scope{tr: tr, round: tr.root}
	}
	rr := inst.round(sc, newMeter(newCalibrator(env.z, def.Workers)))
	if tr != nil {
		tr.end(tr.root, rr.slowdownAttr())
		rr.Spans = tr.snapshot()
	}
	rr.MaxRSSKB = maxRSSKB()
	return json.NewEncoder(stdout).Encode(rr)
}

// oneRound runs one round of the workload, in this process or a fresh
// one. tr is nil for an untraced round.
func oneRound(def *workloadDef, inst instance, o runOpts, m *meter, tr *tracer) (roundResult, error) {
	if !def.Fresh {
		if tr == nil {
			return inst.round(nil, m), nil
		}
		sc := &scope{tr: tr, round: tr.start("round", tr.root, "")}
		rr := inst.round(sc, m)
		tr.end(sc.round, rr.slowdownAttr())
		return rr, nil
	}
	var base int64
	if tr != nil {
		base = tr.now()
	}
	cmd, out, err := startChild(o.childArgs(def, "round", tr != nil))
	if err != nil {
		return roundResult{}, err
	}
	line := lastLine(out)
	if err := cmd.Wait(); err != nil {
		return roundResult{}, fmt.Errorf("round child of %s: %w", def.Name, err)
	}
	var rr roundResult
	if err := json.Unmarshal([]byte(line), &rr); err != nil {
		return rr, fmt.Errorf("round child of %s: %w", def.Name, err)
	}
	if tr != nil {
		tr.adopt(rr.Spans, tr.root, base)
		rr.Spans = nil
	}
	return rr, nil
}

// runWorkload is one benchmark run: measure set-up, set up, run rounds
// until the time is spent, verify, and report. An untraced run reports
// the end-to-end metrics. A traced run alternates untraced and traced
// rounds for 60% of the time, then runs the layer probes, reports the
// per-layer metrics and writes the spans to <out>/trace-<workload>.json.
func runWorkload(def *workloadDef, o runOpts, log io.Writer) (*result, error) {
	o.env.cal = newCalibrator(o.env.z, def.Workers)
	setupS, err := measureSetup(def, o)
	if err != nil {
		return nil, err
	}
	var inst instance
	if !def.Fresh {
		if inst, err = def.setup(&o.env); err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", def.Name, err)
		}
		defer inst.close()
	}

	m := newMeter(o.env.cal)
	var tr *tracer
	budget := o.seconds
	var took []float64 // whole rounds, untimed preparation included
	start := time.Now()
	if o.env.traced {
		tr = newTracer("workload", def.Name)
		budget = 0.6 * o.seconds
		// The first round of a process runs slower than the rest (cold
		// caches, a growing heap). With only a few rounds to compare,
		// that would read as negative tracing overhead; so it is
		// discarded here. Untraced runs keep it: their medians absorb it.
		if _, err := oneRound(def, inst, o, m, nil); err != nil {
			return nil, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	var plain, traced []roundResult
	for {
		// Stop when the next round would overrun, once there is a round
		// of each kind wanted (traced runs compare them in pairs).
		enough := len(plain) > 0 && (!o.env.traced || len(traced) == len(plain))
		if enough && time.Since(start).Seconds()+median(took) > budget {
			break
		}
		t := time.Now()
		if o.env.traced && len(plain) > len(traced) {
			rr, err := oneRound(def, inst, o, m, tr)
			if err != nil {
				return nil, err
			}
			traced = append(traced, rr)
		} else {
			rr, err := oneRound(def, inst, o, m, nil)
			if err != nil {
				return nil, err
			}
			plain = append(plain, rr)
		}
		took = append(took, time.Since(t).Seconds())
	}
	rssKB := maxRSSKB() // before verification and probes grow the heap

	all := append(append([]roundResult(nil), plain...), traced...)
	res := &result{Metrics: map[string]metricValue{}}
	var failures []string
	for _, rr := range all {
		res.Attempted += rr.Attempted
		res.Failed += rr.Failed
		failures = append(failures, rr.Failures...)
		rssKB = max(rssKB, rr.MaxRSSKB)
		if rr.CRC != all[0].CRC {
			failures = append(failures, fmt.Sprintf("result digest %08x differs from the first round's %08x: the program is not deterministic", rr.CRC, all[0].CRC))
		}
	}
	wallS := median(column(plain, func(rr roundResult) float64 { return rr.wall(def) }))
	var extra map[string]float64
	if inst != nil {
		var fails []string
		fails, extra = inst.verify(&o.env, wallS)
		failures = append(failures, fails...)
	}
	res.Correct = len(failures) == 0 && res.Failed == 0
	for _, f := range failures {
		fmt.Fprintf(log, "FAIL %s: %s\n", def.Name, f)
	}

	if !o.env.traced {
		vals := map[string]float64{
			"setup_s": setupS,
			"wall_s":  wallS,
			"cpu_s":   median(column(plain, func(rr roundResult) float64 { return rr.CalCPUS })),
			"points_per_s": median(column(plain, func(rr roundResult) float64 {
				return float64(rr.Attempted-rr.Failed) / rr.wall(def)
			})),
			"flit_hops_per_s": median(column(plain, func(rr roundResult) float64 { return rr.FlitHops / rr.wall(def) })),
			"peak_rss_mb":     float64(rssKB) / 1024,
		}
		fill(res, endToEnd, vals)
		fmt.Fprintf(log, "%s: %d operations, %d failed, %d rounds: measured wall-clock %.3f s, box slowdown %.2f\n", def.Name, res.Attempted, res.Failed, len(plain),
			column(plain, func(rr roundResult) float64 { return rr.WallS }), column(plain, func(rr roundResult) float64 { return rr.WallS / rr.CalWallS }))
		return res, nil
	}

	probes := runProbes(tr, &o.env)
	tr.end(tr.root, nil)
	spans := tr.snapshot()
	vals := layerMetrics(def, spans, plain, traced, probes.constructMS)
	for _, m := range []map[string]float64{probes.out, extra} {
		for k, v := range m {
			vals[k] = v
		}
	}
	fill(res, perLayer, vals)
	if err := checkTrace(spans); err != nil {
		res.Correct = false
		fmt.Fprintf(log, "FAIL %s: trace: %v\n", def.Name, err)
	}
	path := filepath.Join(o.out, "trace-"+def.Name+".json")
	if err := writeTrace(path, def.Name, o, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: %d untraced and %d traced rounds, %d spans in %s\n", def.Name, len(plain), len(traced), len(spans), path)
	return res, nil
}

func column(rs []roundResult, f func(roundResult) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, rr := range rs {
		xs[i] = f(rr)
	}
	return xs
}

// fill copies the declared metrics out of vals, with their units.
func fill(res *result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
}

// traceFile is what -trace writes next to the result: the spans of one
// run, each with its self time, and where they were taken.
type traceFile struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Environment environment `json:"environment"`
	Spans       []fileSpan  `json:"spans"`
}

type fileSpan struct {
	span
	SelfNS int64 `json:"self_ns"`
}

func writeTrace(path, workload string, o runOpts, spans []span) error {
	self := selfTimes(spans)
	tf := traceFile{Workload: workload, Seed: o.env.seed, Environment: readEnvironment(o.env.store)}
	for _, s := range spans {
		tf.Spans = append(tf.Spans, fileSpan{span: s, SelfNS: self[s.ID]})
	}
	return writeJSON(path, tf)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
