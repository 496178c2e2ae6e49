// Command lapses-experiments regenerates the tables and figures of the
// LAPSES paper: its evaluation, and section 5's table programmings.
//
//	lapses-experiments -exp table3                 # one experiment
//	lapses-experiments -exp fig7                   # Fig. 7's ES table, every algorithm
//	lapses-experiments -exp all -fidelity quick    # everything, fast
//	lapses-experiments -exp fig6 -fidelity paper   # 400k-message fidelity
//	lapses-experiments -exp all -workers 16        # widen the sweep pool
//	lapses-experiments -exp fig6 -csv out -reps 5  # error bars over 5 seeds
//	lapses-experiments -exp fig5 -server http://host:8347  # run via lapses-serve
//
// -server routes every grid point (figure sweeps and saturation-search
// probes alike) through a lapses-serve instance instead of simulating
// in-process: points the server's content-addressed store has already
// seen — from any client, ever — are served from disk, and a sweep
// interrupted by a server crash resumes from the store on resubmission.
// One summary line per job ("[serve job ...]") reports the store-hit
// split.
//
// -fidelity picks the fixed sample size every point measures: quick
// (300 warm-up + 3000 measured messages), default (2000 + 30000) or paper
// (10000 + 400000, section 2.2; see README "Measurement methodology").
//
// -csv DIR writes each experiment's record table to DIR/<exp>.csv. An
// experiment's grid runs once per seed: the same rows give the rendered
// table and the CSV. -reps N (with -csv) runs it under N derived seeds
// (Seed + rep*1000003) and adds mean/stderr columns to the CSVs; the
// rendered stdout tables are rep 0's. See the schema note in
// internal/experiments/csv.go.
//
// Experiment grids execute through the concurrent internal/sweep engine:
// -workers bounds the pool (default GOMAXPROCS) for grid points and
// saturation-search probes alike (under -server the server's own workers
// do), and a memo cache shared
// across experiments makes points that recur between figures — e.g.
// Fig. 5's LA-ADAPT baseline, which is also Fig. 6's STATIC-XY series —
// simulate exactly once. Interrupting (Ctrl-C) cancels cleanly at the
// next point boundary.
//
// A flag the run would never read is a usage error (exit 2), not a
// silent no-op: -reps without -csv, and -workers with -server.
//
// Output is the paper's row/series format.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"lapses/internal/experiments"
	"lapses/internal/serve"
	"lapses/internal/sweep"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), ", ")+", or all")
	fidelity := flag.String("fidelity", "default", "sample size: quick, default or paper")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "concurrent simulations per sweep, saturation-search probes included (0 = GOMAXPROCS)")
	csvDir := flag.String("csv", "", "also write <dir>/<exp>.csv for plottable experiments")
	reps := flag.Int("reps", 1, "replications per experiment under derived seeds; CSVs gain mean/stderr columns")
	events := flag.Bool("events", false, "run every point on the event-driven kernel (several times faster, not bit-comparable to cycle mode, mean latency a few cycles low; see README)")
	server := flag.String("server", "", "execute grids via a lapses-serve instance at this URL instead of in-process")
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		fatal(fmt.Errorf("unexpected argument %q (a boolean flag takes -name=false)", flag.Arg(0)))
	}
	flag.Visit(func(fl *flag.Flag) {
		switch {
		case fl.Name == "reps" && *csvDir == "":
			fatal(fmt.Errorf("-reps applies only with -csv: replications feed only the CSVs"))
		case fl.Name == "workers" && *server != "":
			fatal(fmt.Errorf("-workers does not apply with -server: the server's workers bound a served sweep"))
		}
	})
	if *reps < 1 {
		fatal(fmt.Errorf("-reps %d: replication count must be at least 1", *reps))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers %d: worker count must be at least 0 (0 = GOMAXPROCS)", *workers))
	}

	f, err := experiments.ParseFidelity(*fidelity)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runner := experiments.Runner{
		Fidelity:  f,
		Seed:      *seed,
		Workers:   *workers,
		Cache:     sweep.NewCache(),
		EventMode: *events,
	}
	var client *serve.Client
	if *server != "" {
		u, err := url.Parse(*server)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			fatal(fmt.Errorf("-server %q: must be an http(s) URL like http://host:8347", *server))
		}
		client = &serve.Client{Base: *server, Verbose: os.Stdout}
		if err := client.Health(ctx); err != nil {
			fatal(fmt.Errorf("-server %s is not reachable or not healthy: %w", *server, err))
		}
		runner.Exec = client.Run
	}
	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		start := time.Now()
		recs, err := runner.RunByName(ctx, os.Stdout, name, *reps)
		if err != nil {
			fatal(err)
		}
		if *csvDir != "" && recs != nil {
			path := filepath.Join(*csvDir, name+".csv")
			if err := writeCSV(path, recs); err != nil {
				fatal(err)
			}
			fmt.Printf("[csv written to %s]\n", path)
		}
		fmt.Printf("\n[%s done in %.1fs]\n\n", name, time.Since(start).Seconds())
	}
	if h, m := runner.Cache.Hits(), runner.Cache.Misses(); h > 0 {
		fmt.Printf("[memo cache: %d simulated, %d reused]\n", m, h)
	}
	if client != nil {
		if st, err := client.StoreStats(ctx); err == nil {
			fmt.Printf("[server store: %d entries, %d served, %d simulated, %d quarantined]\n",
				st.Entries, st.Hits, st.Misses, st.Quarantined)
		}
	}
}

// writeCSV writes a record table to path. A failed write removes the
// file: a partial CSV that parses is worse than no CSV.
func writeCSV(path string, recs [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = csv.NewWriter(f).WriteAll(recs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lapses-experiments:", err)
	os.Exit(2)
}
