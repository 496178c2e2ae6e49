package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lapses/internal/core"
	"lapses/internal/serve"
	"lapses/internal/sweep"
)

// runEnv is what a workload's set-up is given: the workload seed, the
// input scale, where stores may be created, and whether the run will
// hold traced rounds.
type runEnv struct {
	seed   int64
	z      sizing
	store  string
	traced bool
	cal    *calibrator // the run's calibration kernel (nil in set-up children, which are calibrated from outside)
}

// gridWorkers is the concurrency of every grid workload: the sweep pool
// in-process and served, and the number of one-slot cluster workers.
const gridWorkers = 2

// fastPoll pins the client's status-poll cadence on the cold grids. The
// default back-off (150 ms doubling to 2.4 s, plus up to 50% jitter)
// would quantise a one-second job by more than the job takes; the
// default cadence is what served-warm measures.
const fastPoll = 25 * time.Millisecond

// rusage is this process's resource use; zero if the kernel will not say.
func rusage() (ru syscall.Rusage) {
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // on error ru stays zero
	return ru
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func maxRSSKB() int64 { return int64(rusage().Maxrss) }

// construct is the cheapest run the program offers over c's structure:
// no warm-up and one measured message, so its cost is Validate, the
// plumbing lookup (or build, on first touch) and network.New.
func construct(c core.Config) (core.Result, error) {
	c.Warmup, c.Measure = 0, 1
	return core.Run(c)
}

// ---- kernel workloads: serial core.Run on one goroutine ----

type kernelInst struct {
	pts  []point
	last []core.Result
}

// setupKernel generates the points and, when prime is set, touches every
// structure once so the timed rounds see a warm plumbing cache.
func setupKernel(gen func(int64, sizing) []point, prime bool) func(*runEnv) (instance, error) {
	return func(env *runEnv) (instance, error) {
		k := &kernelInst{pts: gen(env.seed, env.z)}
		if prime {
			for _, p := range k.pts {
				if _, err := construct(p.cfg); err != nil {
					return nil, fmt.Errorf("priming %s: %w", p.cfg.Key(), err)
				}
			}
		}
		return k, nil
	}
}

func (k *kernelInst) round(sc *scope, m *meter) roundResult {
	run := core.Run
	if hook := sc.runner(); hook != nil {
		run = hook
	}
	res := make([]core.Result, len(k.pts))
	errs := make([]error, len(k.pts))
	for i, p := range k.pts {
		m.time(func() { res[i], errs[i] = run(p.cfg) })
	}
	var rr roundResult
	m.finish(&rr)
	for i, p := range k.pts {
		rr.add(p, res[i], errs[i])
	}
	k.last = res
	return rr
}

// verify holds the event-mode twin to its cycle-mode reference, at the
// bar TestEventModeObservationalEquivalence uses: two estimates of one
// mean latency, each good to the 5% half-width that test's controller
// stops at, and throughput within 5%. (The fixed-tier CI95 of runs this
// short is a tenth of that and does not cover the warm-up transient.)
func (k *kernelInst) verify(env *runEnv, _ float64) ([]string, map[string]float64) {
	twin := eventTwin(env.seed, env.z)
	for i, p := range k.pts {
		if p.cfg.Key() != twin.Key() {
			continue
		}
		ref := with(twin, func(c *core.Config) { c.EventMode = false })
		t := time.Now()
		cyc, errC := core.Run(ref)
		wallC := time.Since(t).Seconds()
		t = time.Now()
		ev, errE := core.Run(twin)
		wallE := time.Since(t).Seconds()
		if errC != nil || errE != nil {
			return []string{fmt.Sprintf("event twin: cycle run: %v, event run: %v", errC, errE)}, nil
		}
		var fails []string
		got := k.last[i]
		if d, tol := math.Abs(got.AvgLatency-cyc.AvgLatency), 0.05*(got.AvgLatency+cyc.AvgLatency); d > tol {
			fails = append(fails, fmt.Sprintf("event twin latency %.2f vs cycle %.2f: apart by %.2f, more than %.2f", got.AvgLatency, cyc.AvgLatency, d, tol))
		}
		if r := got.Throughput / cyc.Throughput; r < 0.95 || r > 1.05 {
			fails = append(fails, fmt.Sprintf("event twin throughput %.4f is %.3f of cycle %.4f", got.Throughput, r, cyc.Throughput))
		}
		speedup := (wallC / flitHops(ref, cyc)) / (wallE / flitHops(twin, ev))
		return fails, map[string]float64{"network.event_speedup": speedup}
	}
	return nil, nil
}

func (k *kernelInst) close() {}

// ---- grid workloads ----

// addOutcomes folds a grid's outcomes into the round and returns how
// many were served without simulating.
func (rr *roundResult) addOutcomes(pts []point, outs []sweep.Outcome, err error) (cached int) {
	if err != nil || len(outs) != len(pts) {
		rr.failGrid(len(pts), fmt.Sprintf("grid returned %d outcomes, error %v", len(outs), err))
		return 0
	}
	for i, o := range outs {
		rr.add(pts[i], o.Result, o.Err)
		if o.Cached {
			cached++
		}
	}
	return cached
}

// wantSplit fails the round unless the grid simulated each unique point
// once and served the repeats from the memo layer.
func (rr *roundResult) wantSplit(simulated, cached int) {
	if simulated != gridUnique || cached != gridRepeats {
		rr.failRound(fmt.Sprintf("%d simulated and %d cached, want %d and %d", simulated, cached, gridUnique, gridRepeats))
	}
}

func coldGrid(env *runEnv) []point { return figureGrid(env.seed, env.z, 100, 400) }

// inprocRun is the reference execution of a grid: sweep.Run with a fresh
// memo cache.
func inprocRun(pts []point, sc *scope, m *meter) (rr roundResult, cache *sweep.Cache) {
	cache = sweep.NewCache()
	var outs []sweep.Outcome
	var err error
	m.time(func() {
		job := sc.begin("sweep.Run")
		outs, err = sweep.Run(context.Background(), configs(pts), sweep.Options{
			Workers: gridWorkers, Cache: cache, Runner: sc.runner(), OnPoint: sc.onPoint(),
		})
		sc.finish(job)
	})
	m.finish(&rr)
	rr.addOutcomes(pts, outs, err)
	return rr, cache
}

type inprocInst struct{ pts []point }

func setupInproc(env *runEnv) (instance, error) { return &inprocInst{pts: coldGrid(env)}, nil }

func (g *inprocInst) round(sc *scope, m *meter) roundResult {
	rr, cache := inprocRun(g.pts, sc, m)
	rr.wantSplit(int(cache.Misses()), int(cache.Hits()))
	rr.Counters = map[string]float64{
		"sweep.cache_hits":   float64(cache.Hits()),
		"sweep.cache_misses": float64(cache.Misses()),
	}
	return rr
}

func (g *inprocInst) verify(*runEnv, float64) ([]string, map[string]float64) { return nil, nil }
func (g *inprocInst) close()                                                 {}

// remoteGrid is what the two cold service workloads share: the grid, the
// digest of the last round's results, and the name their tax goes by.
type remoteGrid struct {
	env *runEnv
	pts []point
	crc uint32
	tax string
}

func (g *remoteGrid) close() {}

// verify runs the grid in-process after the timed rounds and holds the
// service to it: the result digest must be equal, and the ratio of the
// two wall-clocks (both in calibrated seconds) is the service tax (base:
// in-process).
func (g *remoteGrid) verify(env *runEnv, wallS float64) ([]string, map[string]float64) {
	refs := 1
	if env.traced {
		refs = 2 // the tax ratio is reported: steadier base
	}
	var walls []float64
	for i := 0; i < refs; i++ {
		ref, _ := inprocRun(g.pts, nil, newMeter(env.cal))
		if ref.Failed > 0 {
			return []string{"in-process reference failed: " + ref.Failures[0]}, nil
		}
		if ref.CRC != g.crc {
			return []string{fmt.Sprintf("result digest %08x differs from the in-process grid's %08x", g.crc, ref.CRC)}, nil
		}
		walls = append(walls, ref.CalWallS)
	}
	return nil, map[string]float64{g.tax: wallS / median(walls)}
}

// service is a lapses-serve instance on a loopback listener over a fresh
// store directory.
type service struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
}

func startService(root string, opt serve.ServerOptions) (*service, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	store, err := serve.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{dir: dir, srv: serve.NewServer(store, opt), served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) // returns once stop closes the server
	}()
	return s, nil
}

func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.hs.Close()
	<-s.served
	http.DefaultClient.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

func fastClient(base string, sc *scope) *serve.Client {
	return &serve.Client{Base: base, HTTP: sc.httpClient(), PollInterval: fastPoll, PollCap: fastPoll}
}

type servedInst struct{ remoteGrid }

func setupServed(env *runEnv) (instance, error) {
	return &servedInst{remoteGrid{env: env, pts: coldGrid(env), tax: "serve.tax_ratio"}}, nil
}

func (g *servedInst) round(sc *scope, m *meter) roundResult {
	var rr roundResult
	svc, err := startService(g.env.store, serve.ServerOptions{Workers: gridWorkers, Runner: sc.runner()})
	if err != nil {
		rr.failGrid(len(g.pts), err.Error())
		return rr
	}
	defer svc.stop()
	client := fastClient(svc.base, sc)
	var outs []sweep.Outcome
	m.time(func() {
		job := sc.begin("Client.Run")
		outs, err = client.Run(context.Background(), configs(g.pts), sweep.Options{OnPoint: sc.onPoint()})
		sc.finish(job)
	})
	m.finish(&rr)
	cached := rr.addOutcomes(g.pts, outs, err)
	rr.wantSplit(len(g.pts)-cached, cached)
	g.crc = rr.CRC
	return rr
}

type clusterInst struct{ remoteGrid }

func setupCluster(env *runEnv) (instance, error) {
	return &clusterInst{remoteGrid{env: env, pts: coldGrid(env), tax: "serve.cluster_tax_ratio"}}, nil
}

func (g *clusterInst) round(sc *scope, m *meter) roundResult {
	var rr roundResult
	n := len(g.pts)
	svc, err := startService(g.env.store, serve.ServerOptions{Cluster: &serve.ClusterOptions{}})
	if err != nil {
		rr.failGrid(n, err.Error())
		return rr
	}
	defer svc.stop()
	points, err := serve.PointsFromGrid(configs(g.pts))
	if err != nil {
		rr.failGrid(n, err.Error())
		return rr
	}
	// Each worker opens the shared directory itself, as a separate
	// process would.
	workers := make([]*serve.Worker, gridWorkers)
	for i := range workers {
		store, err := serve.Open(svc.dir)
		if err != nil {
			rr.failGrid(n, err.Error())
			return rr
		}
		workers[i] = &serve.Worker{ID: fmt.Sprintf("w%d", i+1), Coordinators: []string{svc.base}, Store: store, Workers: 1, Runner: sc.runner()}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := fastClient(svc.base, sc)
	plain := &serve.Client{Base: svc.base} // the benchmark's own reads stay out of the job's HTTP count
	var wg sync.WaitGroup
	var res serve.JobResults
	m.time(func() {
		job := sc.begin("cluster job")
		defer sc.finish(job)
		var st serve.JobStatus
		if st, err = client.Submit(ctx, points); err != nil {
			return
		}
		// Workers start once the coordinator has cut the job into units:
		// a claim that arrives earlier is told to come back in a
		// heartbeat interval (2.5 s), which is the idle pick-up delay
		// serve.cluster_pickup_ms reports, not part of this workload.
		for {
			cs, err := plain.ClusterStats(ctx)
			if err != nil || cs.PendingUnits > 0 || cs.ActiveLeases > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		for _, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if sc != nil {
					id := sc.tr.start("worker", sc.round, w.ID)
					defer sc.tr.end(id, nil)
					w.HTTP = sc.httpClientUnder(id, w.ID)
				}
				w.Run(ctx) // returns ctx.Err() once cancelled below
			}()
		}
		if st, err = client.Wait(ctx, st.ID); err != nil {
			return
		}
		res, err = client.Results(ctx, st.ID)
	})
	m.finish(&rr)
	stats, statsErr := plain.ClusterStats(ctx)
	cancel()
	wg.Wait()
	if err == nil {
		err = statsErr
	}
	if err != nil || len(res.Outcomes) != n {
		rr.failGrid(n, fmt.Sprintf("cluster job returned %d outcomes, error %v", len(res.Outcomes), err))
		return rr
	}
	for i, po := range res.Outcomes {
		switch {
		case po.Error != "":
			rr.add(g.pts[i], core.Result{}, fmt.Errorf("%s", po.Error))
		case po.Result == nil:
			rr.add(g.pts[i], core.Result{}, fmt.Errorf("no result and no error"))
		default:
			rr.add(g.pts[i], *po.Result, nil)
		}
	}
	// With one shared store a repeat is re-simulated only when its first
	// copy is still in flight on the other worker.
	if st := res.Status; st.Simulated+st.Cached != n || st.Simulated < gridUnique {
		rr.failRound(fmt.Sprintf("job status: %d simulated, %d cached of %d", st.Simulated, st.Cached, n))
	}
	rr.Counters = map[string]float64{
		"serve.leases":              float64(stats.Claims),
		"serve.requeues":            float64(stats.OrphanRequeues + stats.TransientRequeues),
		"serve.cluster_resimulated": float64(res.Status.Simulated - gridUnique),
	}
	g.crc = rr.CRC
	return rr
}

// warmInst is a server whose store already holds every point of the
// grid; a round resubmits the grid once with the default client. The
// round is one job because a job's latency has two modes — the client's
// first status poll either finds the job done (a few ms) or sleeps one
// poll interval (150-225 ms) — and only a median over jobs is steady.
type warmInst struct {
	svc  *service
	pts  []point
	want [][]byte
	cur  atomic.Pointer[scope] // the traced round in progress, for the server's Runner hook
}

func setupWarm(env *runEnv) (instance, error) {
	// Measure is cut to 100 so population is cheap; the keys stay
	// distinct and a Result is the same size on the wire and on disk.
	w := &warmInst{pts: figureGrid(env.seed, env.z, 100, 100)}
	opt := serve.ServerOptions{Workers: gridWorkers}
	if env.traced {
		// Nothing should simulate in a warm round; the hook is what
		// shows it (serve.sim_share reads 0).
		opt.Runner = func(c core.Config) (core.Result, error) {
			if hook := w.cur.Load().runner(); hook != nil {
				return hook(c)
			}
			return core.Run(c)
		}
	}
	svc, err := startService(env.store, opt)
	if err != nil {
		return nil, err
	}
	outs, err := fastClient(svc.base, nil).Run(context.Background(), configs(w.pts), sweep.Options{})
	if err != nil {
		svc.stop()
		return nil, fmt.Errorf("populating the store: %w", err)
	}
	for _, o := range outs {
		if o.Err != nil {
			svc.stop()
			return nil, fmt.Errorf("populating the store: %s: %w", o.Config.Key(), o.Err)
		}
		w.want = append(w.want, canonical(o.Result))
	}
	w.svc = svc
	return w, nil
}

func (w *warmInst) round(sc *scope, m *meter) roundResult {
	w.cur.Store(sc)
	defer w.cur.Store(nil)
	client := &serve.Client{Base: w.svc.base, HTTP: sc.httpClient()}
	var outs []sweep.Outcome
	var err error
	var rr roundResult
	m.time(func() {
		job := sc.begin("Client.Run")
		outs, err = client.Run(context.Background(), configs(w.pts), sweep.Options{OnPoint: sc.onPoint()})
		sc.finish(job)
	})
	m.finish(&rr)
	rr.JobMS = []float64{rr.WallS * 1e3}
	cached := rr.addOutcomes(w.pts, outs, err)
	if err != nil {
		return rr
	}
	if cached != len(w.pts) {
		rr.fail(fmt.Sprintf("warm job simulated %d points", len(w.pts)-cached))
	}
	for i, o := range outs {
		if o.Err == nil && !bytes.Equal(canonical(o.Result), w.want[i]) {
			rr.fail(fmt.Sprintf("point %d differs from the stored result", i))
		}
	}
	return rr
}

func (w *warmInst) verify(*runEnv, float64) ([]string, map[string]float64) { return nil, nil }
func (w *warmInst) close()                                                 { w.svc.stop() }
