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
// and never heal. The optional -reliability flag adds the end-to-end NI
// retransmission layer on top, turning transition losses into retries:
//
//	lapses-sim -load 0.3 -faults 4 -fault-seed 7
//	lapses-sim -load 0.3 -faults 12-13,40-41,r77
//	lapses-sim -load 0.3 -faults 12-13@5000:9000,r77@2000
//	lapses-sim -load 0.3 -faults 12-13@5000:9000 -reliability on
//
// -burst switches every source to a bursty two-state MMPP at the same
// mean rate, and -qos enables two-class traffic with VC reservation —
// the workloads the notification selectors (-selection notify-lru etc.)
// are built for:
//
//	lapses-sim -load 0.5 -burst 0.3,200 -selection notify-max-credit
//	lapses-sim -load 0.3 -qos 0.2,1 -pattern hotspot
//
// -auto switches to the adaptive measurement tier: MSER-5 warmup
// truncation plus CI-based early stopping at the -auto-tol relative
// half-width, with -warmup+-measure as the message ceiling. The summary
// then reports the truncated measurement window and whether the CI
// converged before the ceiling.
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
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/traffic"
)

func main() {
	cfg := core.DefaultConfig()

	dims := flag.String("dims", "16x16", "mesh radices, e.g. 16x16 or 8x8x8")
	torus := flag.Bool("torus", false, "wrap the mesh into a torus")
	vcs := flag.Int("vcs", cfg.VCs, "virtual channels per physical channel")
	escape := flag.Int("escape", cfg.EscapeVCs, "escape VCs (Duato routing)")
	buf := flag.Int("buf", cfg.BufDepth, "input buffer depth (flits)")
	la := flag.Bool("lookahead", cfg.LookAhead, "use the 4-stage LA-PROUD pipeline")
	alg := flag.String("alg", cfg.Algorithm.String(), "routing algorithm: xy, yx, duato, north-last, west-first, negative-first")
	tbl := flag.String("table", cfg.Table.String(), "table organization: full, es, meta-row, meta-block, interval")
	sel := flag.String("selection", cfg.Selection.String(), "path selection: static-xy, min-mux, lfu, lru, max-credit, random, notify-lru, notify-lfu, notify-max-credit")
	pattern := flag.String("pattern", cfg.Pattern.String(), "traffic pattern: uniform, transpose, bit-reversal, shuffle, ...")
	load := flag.Float64("load", cfg.Load, "normalized load (1.0 = bisection saturation)")
	burst := flag.String("burst", "", "bursty MMPP sources as ONFRAC,MEANON (e.g. 0.3,200): fraction of time spent ON and mean ON-period cycles, same mean rate as -load")
	qos := flag.String("qos", "", "two-class QoS traffic as HIFRAC,HIVCS (e.g. 0.2,1): high-class probability and reserved top adaptive VCs")
	msgLen := flag.Int("msglen", cfg.MsgLen, "message length in flits")
	warmup := flag.Int("warmup", cfg.Warmup, "warm-up messages (excluded from stats)")
	measure := flag.Int("measure", cfg.Measure, "measured messages")
	seed := flag.Int64("seed", cfg.Seed, "random seed")
	auto := flag.Bool("auto", false, "adaptive measurement: MSER-5 warmup truncation + CI-based early stopping (ceiling = warmup+measure)")
	autoTol := flag.Float64("auto-tol", 0.05, "with -auto: stop once the 95% CI half-width falls to this fraction of the mean")
	faults := flag.String("faults", "", "failed equipment: a count of random link failures, or a \"A-B,...,rN\" spec whose items may be timed \"@DOWN[:UP]\" (untimed = down from the start; \":UP\" omitted = permanent)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for a random count of link failures")
	reliability := flag.String("reliability", "", "end-to-end NI retransmission layer: \"on\" for defaults, or \"RTO,ATTEMPTS,ACKDELAY\" (cycles, count, cycles; 0 = default)")
	events := flag.Bool("events", false, "event-driven kernel: observationally equivalent to cycle mode, not bit-identical (see README)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var err error
	if cfg.Dims, err = parseDims(*dims); err != nil {
		fatal(err)
	}
	cfg.Torus = *torus
	cfg.VCs, cfg.EscapeVCs, cfg.BufDepth = *vcs, *escape, *buf
	cfg.LookAhead = *la
	if cfg.Algorithm, err = core.ParseAlg(*alg); err != nil {
		fatal(err)
	}
	if cfg.Table, err = table.ParseKind(*tbl); err != nil {
		fatal(err)
	}
	if cfg.Selection, err = selection.ParseKind(*sel); err != nil {
		fatal(err)
	}
	if cfg.Pattern, err = traffic.ParseKind(*pattern); err != nil {
		fatal(err)
	}
	cfg.Load, cfg.MsgLen = *load, *msgLen
	cfg.Warmup, cfg.Measure, cfg.Seed = *warmup, *measure, *seed
	if *burst != "" {
		if cfg.Burst, err = parseBurst(*burst); err != nil {
			fatal(err)
		}
	}
	if *qos != "" {
		if cfg.QoS, err = parseQoS(*qos); err != nil {
			fatal(err)
		}
	}
	cfg.EventMode = *events
	if *auto {
		if *autoTol <= 0 {
			fatal(fmt.Errorf("-auto-tol %g: relative CI tolerance must be positive", *autoTol))
		}
		cfg.Auto = &core.AutoMeasure{RelTol: *autoTol}
	}
	if *faults != "" {
		if cfg.Faults, err = parseFaults(cfg, *faults, *faultSeed); err != nil {
			fatal(err)
		}
	}
	if *reliability != "" {
		if cfg.Reliability, err = parseReliability(*reliability); err != nil {
			fatal(err)
		}
	}

	res, err := core.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("network        %s  (%d VCs, %d-flit buffers, link delay %d)\n",
		cfg.Mesh(), cfg.VCs, cfg.BufDepth, cfg.LinkDelay)
	fmt.Printf("router         %s, %s routing, %s table, %s selection\n",
		pipeName(cfg.LookAhead), cfg.Algorithm, cfg.Table, cfg.Selection)
	fmt.Printf("workload       %s, load %.2f, %d-flit messages\n", cfg.Pattern, cfg.Load, cfg.MsgLen)
	if cfg.Burst != nil {
		fmt.Printf("bursty         MMPP on/off sources: on-fraction %.2f, mean on-period %.0f cycles\n",
			cfg.Burst.OnFrac, cfg.Burst.MeanOn)
	}
	if cfg.QoS != nil {
		fmt.Printf("qos            high-class probability %.2f, top %d adaptive VC(s) reserved\n",
			cfg.QoS.HiFrac, cfg.QoS.HiVCs)
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
	// MeasuredCycles is the statistics window; SkippedCycles counts the
	// simulated-but-not-executed idle jumps. The two are independent: a
	// fast-forwarded cycle inside the window is still measured time (the
	// jump is observationally neutral), so MeasuredCycles never shrinks
	// because fast-forward ran.
	fmt.Printf("measured       %d-cycle window, %d total simulated\n", res.MeasuredCycles, res.TotalCycles)
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
	if cfg.Reliability != nil {
		fmt.Printf("reliability    %d retransmissions, %d duplicates suppressed, %d abandoned\n",
			res.Retransmits, res.DupSuppressed, res.Abandoned)
	}
	if cfg.Auto != nil {
		fmt.Printf("auto           converged=%t after %d messages (CI ±%.2f, target ±%.1f%% of mean)\n",
			res.Converged, res.Delivered, res.LatencyCI, *autoTol*100)
	}
	if res.Saturated {
		fmt.Printf("saturated      %s\n", res.SatReason)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func pipeName(la bool) string {
	if la {
		return "LA-PROUD (4-stage)"
	}
	return "PROUD (5-stage)"
}

// parseReliability reads the -reliability spec: "on" takes every
// default, otherwise "RTO,ATTEMPTS,ACKDELAY" with zeros falling back to
// the defaults (core validates signs and the network applies defaults).
func parseReliability(spec string) (*core.Reliability, error) {
	if strings.TrimSpace(spec) == "on" {
		return &core.Reliability{}, nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad -reliability %q: want \"on\" or RTO,ATTEMPTS,ACKDELAY (e.g. 2048,12,64)", spec)
	}
	rto, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad -reliability %q: %v", spec, err)
	}
	attempts, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return nil, fmt.Errorf("bad -reliability %q: %v", spec, err)
	}
	ackDelay, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad -reliability %q: %v", spec, err)
	}
	return &core.Reliability{RTO: rto, MaxAttempts: attempts, AckDelay: ackDelay}, nil
}

// parseFaults builds the damage: a bare integer draws that many random
// link failures (connectivity-preserving), anything else is a
// fault.ParseSchedule spec.
func parseFaults(cfg core.Config, spec string, seed int64) (*fault.Schedule, error) {
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

// parseQoS reads the -qos spec "HIFRAC,HIVCS" into a two-class QoS
// specification; core.Run checks the ranges.
func parseQoS(spec string) (*core.QoSSpec, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad -qos %q: want HIFRAC,HIVCS (e.g. 0.2,1)", spec)
	}
	hiFrac, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return nil, fmt.Errorf("bad -qos %q: %v", spec, err)
	}
	hiVCs, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return nil, fmt.Errorf("bad -qos %q: %v", spec, err)
	}
	return &core.QoSSpec{HiFrac: hiFrac, HiVCs: hiVCs}, nil
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lapses-sim:", err)
	os.Exit(2)
}
