// Command benchmark is the repository's performance benchmark: eight
// workloads that enter the simulator stack at different layers (router
// kernel, core.Run, sweep, the serve store and HTTP service, the worker
// cluster), six end-to-end metrics per workload, and a traced mode that
// attributes the time to layers. See README.md in this directory.
//
//	go run ./benchmark -workload grid-served -seed 3 -seconds 10 -trace 0
//	go run ./benchmark                  # every workload, one result file
//	go run ./benchmark -trace 1         # ... and the per-layer pass
//	go run ./benchmark -compare benchmark/reference/set-a.json benchmark/out/result.json
//
// A -workload run prints its metrics by name and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// defaultSeconds is how long one run measures; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 10

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload and print its result line (default: run them all)")
	seed := fs.Int64("seed", 1, "workload seed: every point's Config.Seed and the visiting order of kernel-short")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes <out>/trace-<workload>.json")
	out := fs.String("out", "benchmark/out", "directory for result and trace files")
	store := fs.String("store", "", "directory the served workloads create their stores under (default <out>/store)")
	compare := fs.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
	phase := fs.String("phase", "", "internal: body of a child process (setup, round)")
	small := fs.Bool("small", false, "internal: test-scale inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare OLD.json NEW.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments, or -seconds/-trace out of range")
		return 2
	}
	if *store == "" {
		*store = filepath.Join(*out, "store")
	}
	o := runOpts{seconds: *seconds, out: *out,
		env: runEnv{seed: *seed, z: sizing{small: *small}, store: *store, traced: *trace == 1}}

	if *workload == "" {
		return runSet(o, stdout, stderr)
	}
	def := findWorkload(*workload)
	if def == nil {
		fmt.Fprintf(stderr, "benchmark: no workload %q\n", *workload)
		return 2
	}
	var err error
	switch *phase {
	case "setup":
		err = setupPhase(def, &o.env, stdout)
	case "round":
		err = roundPhase(def, &o.env, stdout)
	case "":
		var res *result
		if res, err = runWorkload(def, o, stderr); err == nil {
			printResult(stdout, def.Name, res)
			err = json.NewEncoder(stdout).Encode(res)
		}
	default:
		err = fmt.Errorf("no phase %q", *phase)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// printResult lists every metric of a run by name, with its unit.
func printResult(w io.Writer, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-18s %-32s %16s %s\n", workload, n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
}

// setResult is the file a run of every workload leaves: what -compare
// reads.
type setResult struct {
	Seed        int64                `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Environment environment          `json:"environment"`
	Workloads   map[string]*setEntry `json:"workloads"`
}

type setEntry struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// runSet runs every workload, each in a fresh child process, then the
// traced pass when asked, and writes <out>/result.json. It exits
// non-zero when any check of any workload failed.
func runSet(o runOpts, stdout, stderr io.Writer) int {
	set := setResult{Seed: o.env.seed, Seconds: o.seconds, Environment: readEnvironment(o.env.store), Workloads: map[string]*setEntry{}}
	ok := true
	passes := []bool{false}
	if o.env.traced {
		passes = append(passes, true)
	}
	for _, traced := range passes {
		for i := range workloads {
			def := &workloads[i]
			args := append(o.childArgs(def, "", traced), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.out)
			cmd, out, err := startChild(args)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			line := lastLine(out)
			var res result
			if err := cmd.Wait(); err != nil || json.Unmarshal([]byte(line), &res) != nil {
				fmt.Fprintf(stderr, "benchmark: %s: child failed: %v (last line %q)\n", def.Name, err, line)
				return 1
			}
			printResult(stdout, def.Name, &res)
			e := set.Workloads[def.Name]
			if e == nil {
				e = &setEntry{Correct: true}
				set.Workloads[def.Name] = e
			}
			e.Correct = e.Correct && res.Correct
			ok = ok && res.Correct
			if traced {
				e.PerLayer = res.Metrics
			} else {
				e.Attempted, e.Failed, e.EndToEnd = res.Attempted, res.Failed, res.Metrics
			}
		}
	}
	// The service tax across workloads of this set, each ratio with its base.
	if base := set.Workloads["grid-inproc"].EndToEnd["wall_s"].Value; base > 0 {
		for _, w := range []string{"grid-served", "grid-cluster"} {
			wall := set.Workloads[w].EndToEnd["wall_s"].Value
			fmt.Fprintf(stdout, "%s wall_s %.4f s is %.3f of grid-inproc wall_s %.4f s\n", w, wall, wall/base, base)
		}
	}
	path := filepath.Join(o.out, "result.json")
	if err := writeJSON(path, set); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote", path)
	if !ok {
		fmt.Fprintln(stderr, "benchmark: some checks failed")
		return 1
	}
	return 0
}
