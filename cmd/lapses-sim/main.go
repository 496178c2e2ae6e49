// Command lapses-sim runs one network simulation and prints its results.
//
// Example: reproduce one LA-adaptive point of Fig. 5(a):
//
//	lapses-sim -load 0.5 -pattern uniform -selection static-xy
//
// Or a deterministic router without look-ahead on transpose traffic:
//
//	lapses-sim -alg xy -lookahead=false -pattern transpose -load 0.3
//
// Degraded topologies come from -faults: an integer draws that many
// random link failures (seeded by -fault-seed, always leaving the network
// connected), while an explicit spec names links by their endpoints and
// routers with an r prefix. An item may carry "@DOWN" or "@DOWN:UP": it
// then fails mid-run at cycle DOWN (and heals at UP), with live route
// reconvergence at each transition; untimed items are down from the start
// and never heal. -fault-seed applies to a count only. The -reliability
// switch adds the end-to-end NI retransmission layer on top, turning
// transition losses into retries:
//
//	lapses-sim -load 0.3 -faults 4 -fault-seed 7
//	lapses-sim -load 0.3 -faults 12-13,40-41,r77
//	lapses-sim -load 0.3 -faults 12-13@5000:9000,r77@2000
//	lapses-sim -load 0.3 -faults 12-13@5000:9000 -reliability
//
// Every argument is a flag: a stray word such as the "false" of
// "-lookahead false" (a boolean flag takes "-lookahead=false") is refused,
// since the flag package would stop there and ignore the rest.
//
// -burst switches every source to a bursty two-state MMPP at the same
// mean rate, and -qos enables two-class traffic with VC reservation —
// the workloads the notification selectors (-selection notify-lru etc.)
// are built for:
//
//	lapses-sim -load 0.5 -burst 0.3,200 -selection notify-max-credit
//	lapses-sim -load 0.3 -qos 0.2 -pattern hotspot
//
// Every run measures -measure messages after -warmup (the paper's
// section 2.2 uses 10000 and 400000), within a budget of -max-cycles
// cycles (0 derives one from the offered load; a run that exhausts it
// reports saturation).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/network"
	"lapses/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lapses-sim:", err)
		os.Exit(2)
	}
}

// run is the command. It returns its error rather than exiting, so that
// its deferred calls run on every path: a failed run still stops and
// flushes a -cpuprofile.
func run() error {
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	cfg, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("network        %s  (%d VCs, %d-flit buffers, link delay %d)\n",
		cfg.Mesh(), core.VCs, core.BufDepth, core.LinkDelay)
	fmt.Printf("router         %s, %s routing, %s table, %s selection\n",
		pipeName(cfg.LookAhead), cfg.Algorithm, cfg.Table, cfg.Selection)
	fmt.Printf("workload       %s, load %.2f, %d-flit messages\n", cfg.Pattern, cfg.Load, cfg.MsgLen)
	if cfg.Burst != nil {
		fmt.Printf("bursty         MMPP on/off sources: on-fraction %.2f, mean on-period %.0f cycles\n",
			cfg.Burst.OnFrac, cfg.Burst.MeanOn)
	}
	if cfg.QoS != 0 {
		fmt.Printf("qos            high-class probability %.2f, top %d adaptive VC(s) reserved\n",
			cfg.QoS, core.ResvVCs)
	}
	timed := cfg.Faults.Epochs() > 1
	if p := cfg.Faults.Plan(0); !timed && !p.Empty() {
		fmt.Printf("faults         %d links, %d routers down: %s\n", p.NumLinks(), p.NumRouters(), p.Key())
	}
	if timed {
		fmt.Printf("schedule       %s\n", cfg.Faults.Key())
	}
	fmt.Printf("avg latency    %s cycles (95%% CI +/- %.2f)\n", res.LatencyString(), res.CI95)
	fmt.Printf("percentiles    p50 %.0f / p95 %.0f / p99 %.0f cycles\n", res.P50, res.P95, res.P99)
	fmt.Printf("net latency    %.1f cycles (excl. source queueing)\n", res.NetLatency)
	fmt.Printf("avg hops       %.2f\n", res.AvgHops)
	fmt.Printf("throughput     %.4f flits/node/cycle\n", res.Throughput)
	fmt.Printf("delivered      %d messages over %d cycles\n", res.Delivered, res.Cycles)
	kernel := "cycle-driven"
	if cfg.EventMode {
		kernel = "event-driven"
	}
	fmt.Printf("kernel         %s, %d of %d cycles fast-forwarded\n",
		kernel, res.SkippedCycles, res.TotalCycles)
	if timed {
		recovery := "never (or no pre-fault baseline)"
		if res.RecoveryCycles >= 0 {
			recovery = fmt.Sprintf("%d cycles after last failure", res.RecoveryCycles)
		}
		fmt.Printf("transitions    %d reconvergences, %d flits / %d messages dropped\n",
			res.ReconvergenceEpochs, res.DroppedFlits, res.DroppedMessages)
		fmt.Printf("availability   %.4f of measured messages delivered, rate recovered %s\n",
			res.DeliveredFraction, recovery)
	}
	if cfg.Reliability {
		fmt.Printf("reliability    %d retransmissions, %d duplicates suppressed, %d abandoned\n",
			res.Retransmits, res.DupSuppressed, res.Abandoned)
	}
	if res.Saturated {
		fmt.Printf("saturated      %s\n", res.SatReason)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func pipeName(la bool) string {
	if la {
		return "LA-PROUD (4-stage)"
	}
	return "PROUD (5-stage)"
}

// parse reads the command line args into the config to run, through fs:
// every field of core.Config but Trace has a flag.
func parse(fs *flag.FlagSet, args []string) (cfg core.Config, err error) {
	cfg = core.DefaultConfig()
	dims := fs.String("dims", "16x16", "mesh radices, e.g. 16x16 or 8x8x8")
	fs.BoolVar(&cfg.Torus, "torus", false, "wrap the mesh into a torus")
	fs.BoolVar(&cfg.LookAhead, "lookahead", cfg.LookAhead, "use the 4-stage LA-PROUD pipeline")
	fs.TextVar(&cfg.Algorithm, "alg", cfg.Algorithm, "routing algorithm: xy, yx, duato, north-last, west-first, negative-first")
	fs.TextVar(&cfg.Table, "table", cfg.Table, "table organization: full, es, meta-row, meta-block, interval")
	fs.TextVar(&cfg.Selection, "selection", cfg.Selection, "path selection: static-xy, min-mux, lfu, lru, max-credit, random, notify-lru, notify-lfu, notify-max-credit")
	fs.TextVar(&cfg.Pattern, "pattern", cfg.Pattern, "traffic pattern: uniform, transpose, bit-reversal, shuffle, ...")
	fs.Float64Var(&cfg.Load, "load", cfg.Load, "normalized load (1.0 = bisection saturation)")
	burst := fs.String("burst", "", "bursty MMPP sources as ONFRAC,MEANON (e.g. 0.3,200): fraction of time spent ON and mean ON-period cycles, same mean rate as -load")
	fs.Float64Var(&cfg.QoS, "qos", 0, "two-class QoS traffic: the high-class probability (e.g. 0.2; 0 = single-class); the top adaptive VC is reserved for that class")
	fs.IntVar(&cfg.MsgLen, "msglen", cfg.MsgLen, "message length in flits")
	fs.IntVar(&cfg.Warmup, "warmup", cfg.Warmup, "warm-up messages (excluded from stats)")
	fs.IntVar(&cfg.Measure, "measure", cfg.Measure, "measured messages")
	fs.Int64Var(&cfg.MaxCycles, "max-cycles", cfg.MaxCycles, "cycle budget; a run that exhausts it reports saturation (0 derives one from the offered load)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	faults := fs.String("faults", "", "failed equipment: a count of random link failures, or a \"A-B,...,rN\" spec whose items may be timed \"@DOWN[:UP]\" (untimed = down from the start; \":UP\" omitted = permanent)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for a random count of link failures (with a count -faults only)")
	fs.BoolVar(&cfg.Reliability, "reliability", false, fmt.Sprintf("end-to-end NI retransmission layer (RTO %d cycles, %d attempts, acks held %d cycles)",
		network.DefaultRTO, network.DefaultMaxAttempts, network.DefaultAckDelay))
	fs.BoolVar(&cfg.EventMode, "events", false, "event-driven kernel: faster, not bit-identical to cycle mode, mean latency a few cycles low (see README)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return cfg, fmt.Errorf("unexpected argument %q (a boolean flag takes -name=false)", fs.Arg(0))
	}
	// A seed with no random draw to seed would run something other than
	// what was asked for, unnoticed.
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "fault-seed" })
	if _, err := strconv.Atoi(strings.TrimSpace(*faults)); err != nil && seedSet {
		return cfg, fmt.Errorf("-fault-seed seeds a count -faults of random link failures, and -faults %q is none", *faults)
	}

	if cfg.Dims, err = parseDims(*dims); err != nil {
		return cfg, err
	}
	if *burst != "" {
		if cfg.Burst, err = parseBurst(*burst); err != nil {
			return cfg, err
		}
	}
	if *faults != "" {
		cfg.Faults, err = parseFaults(cfg, *faults, *faultSeed)
	}
	return cfg, err
}

// parseFaults builds the damage: a bare integer draws that many random
// link failures (connectivity-preserving), anything else is a
// fault.ParseSchedule spec.
func parseFaults(cfg core.Config, spec string, seed int64) (*fault.Schedule, error) {
	if err := core.ValidateDims(cfg.Dims); err != nil {
		return nil, err
	}
	m := cfg.Mesh()
	if n, err := strconv.Atoi(strings.TrimSpace(spec)); err == nil {
		p, err := fault.Random(m, n, 0, seed)
		return fault.Static(p), err
	}
	return fault.ParseSchedule(m, spec)
}

// parseBurst reads the -burst spec "ONFRAC,MEANON" into an MMPP burst
// parameterization; core.Run checks the ranges.
func parseBurst(spec string) (*traffic.Burst, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad -burst %q: want ONFRAC,MEANON (e.g. 0.3,200)", spec)
	}
	onFrac, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return nil, fmt.Errorf("bad -burst %q: %v", spec, err)
	}
	meanOn, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return nil, fmt.Errorf("bad -burst %q: %v", spec, err)
	}
	return &traffic.Burst{OnFrac: onFrac, MeanOn: meanOn}, nil
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad dims %q: %v", s, err)
		}
		dims = append(dims, v)
	}
	return dims, nil
}
