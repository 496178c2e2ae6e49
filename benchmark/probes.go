package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"

	"lapses/internal/core"
	"lapses/internal/serve"
	"lapses/internal/sweep"
)

// Layer probes: small fixed measurements of one layer each, taken from
// outside through the same public functions the workloads use. They run
// after the rounds of every traced run, so a per-layer number is at hand
// whichever workload a change is being judged on.

type prober struct {
	tr  *tracer
	env *runEnv
	cal *calibrator // one copy wide: every probe is single-threaded
	out map[string]float64
	// constructMS is the warm construction cost by node count, used to
	// split a workload's core.Run time into construction and simulation.
	constructMS map[int]float64
}

// span runs f inside a probe span under the run's root. When calibrated,
// the calibration kernel runs on either side and every time f reported
// is converted to calibrated seconds (a probe that times a timer is not);
// the box's slowdown around f is returned.
func (p *prober) span(name string, calibrated bool, f func()) float64 {
	all := p.out
	p.out = map[string]float64{}
	before := 0.0
	if calibrated {
		before = p.cal.sample()
	}
	id := p.tr.start("probe "+name, p.tr.root, "")
	f()
	p.tr.end(id, nil)
	k := 1.0
	if calibrated {
		k = slowdown(before, p.cal.sample())
	}
	for _, d := range perLayer {
		if v, ok := p.out[d.Name]; ok && timeUnits[d.Unit] {
			all[d.Name] = v / k
		} else if ok {
			all[d.Name] = v
		}
	}
	p.out = all
	return k
}

var timeUnits = map[string]bool{"ns": true, "us": true, "ms": true, "s": true}

// samples scales a probe's sample count down for the tier-1 test.
func (p *prober) samples(n int) int {
	if p.env.z.small {
		return max(n/10, 2)
	}
	return n
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// perOpNS times n calls of f and returns nanoseconds per call.
func perOpNS(n int, f func()) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

func runProbes(tr *tracer, env *runEnv) *prober {
	p := &prober{tr: tr, env: env, cal: newCalibrator(env.z, 1), out: map[string]float64{}, constructMS: map[int]float64{}}
	k := p.span("core", true, p.core)
	for n := range p.constructMS {
		p.constructMS[n] /= k
	}
	pickup := p.startPickup() // idles in the background while the rest run
	p.span("sweep", true, p.sweep)
	p.span("serve.store", true, p.store)
	p.span("serve.wire", true, p.wire)
	p.span("serve.poll_lag", false, p.pollLag)
	p.span("serve.cluster_pickup", false, func() { p.out["serve.cluster_pickup_ms"] = median(pickup()) })
	return p
}

func (p *prober) core() {
	lapses := base(p.env.seed, p.env.z, 300, 3000)
	for _, k := range []int{8, 16, 32} {
		c := with(lapses, func(c *core.Config) { c.Dims = p.env.z.mesh(k) })
		construct(c) // warm the structure
		n := p.samples(50)
		if k == 32 {
			n = p.samples(20)
		}
		var ms []float64
		for i := 0; i < n; i++ {
			t := time.Now()
			construct(c)
			ms = append(ms, msSince(t))
		}
		p.constructMS[c.Dims[0]*c.Dims[1]] = median(ms)
		switch k {
		case 16:
			p.out["core.construct_ms"] = median(ms)
		case 32:
			p.out["core.construct_ms_32x32"] = median(ms)
		}
	}

	// A structure no workload touches, so its first construction in this
	// process builds the routing function and tables.
	cold := with(lapses, func(c *core.Config) { c.Algorithm = core.AlgWestFirst })
	t := time.Now()
	construct(cold)
	first := msSince(t)
	var warm []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		construct(cold)
		warm = append(warm, msSince(t))
	}
	p.out["core.plumbing_cold_ms"] = first - median(warm)

	var key string
	p.out["core.key_ns"] = perOpNS(p.samples(20000), func() { key = lapses.Key() })
	_ = key

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	core.Run(lapses)
	runtime.ReadMemStats(&after)
	p.out["core.allocs_per_run"] = float64(after.Mallocs - before.Mallocs)
	p.out["core.alloc_kb_per_run"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024
}

func (p *prober) sweep() {
	cfg := base(p.env.seed, p.env.z, 300, 3000)
	instant := func(core.Config) (core.Result, error) { return core.Result{}, nil }

	grid := make([]core.Config, p.samples(10000))
	for i := range grid {
		grid[i] = cfg
	}
	t := time.Now()
	sweep.Run(context.Background(), grid, sweep.Options{Workers: gridWorkers, Runner: instant})
	p.out["sweep.dispatch_us_per_point"] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(grid))

	cache := sweep.NewCache()
	cache.Do(context.Background(), cfg, instant)
	p.out["sweep.memo_hit_ns"] = perOpNS(p.samples(20000), func() { cache.Do(context.Background(), cfg, instant) })
}

func (p *prober) store() {
	if err := os.MkdirAll(p.env.store, 0o755); err != nil {
		return
	}
	dir, err := os.MkdirTemp(p.env.store, "probe-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	store, err := serve.Open(dir)
	if err != nil {
		return
	}
	cfg := base(p.env.seed, p.env.z, 300, 3000)
	// A Result of real size to store. (A one-message run will not do:
	// its confidence interval is +Inf, which the store cannot encode.)
	res, err := core.Run(with(cfg, func(c *core.Config) { c.Warmup, c.Measure = 0, 100 }))
	if err != nil {
		return
	}
	instant := func(core.Config) (core.Result, error) { return res, nil }
	do := func(i int) float64 {
		t := time.Now()
		store.Do(context.Background(), with(cfg, func(c *core.Config) { c.Seed = int64(i) }), instant)
		return msSince(t)
	}
	n := max(p.samples(200), gridUnique)
	var put, hit, open []float64
	for i := 0; i < n; i++ {
		put = append(put, do(i))
		if i+1 == gridUnique {
			// The recovery scan a server restart pays over one grid's entries.
			for j := 0; j < 5; j++ {
				t := time.Now()
				serve.Open(dir)
				open = append(open, msSince(t))
			}
		}
	}
	for i := 0; i < n; i++ {
		hit = append(hit, do(i)*1e3)
	}
	if st := store.Stats(); st.Entries != n || st.Hits != int64(n) {
		return // the store did not keep what it was given: nothing was measured
	}
	p.out["serve.store_put_ms_p50"] = quantile(put, 0.5)
	p.out["serve.store_put_ms_p90"] = quantile(put, 0.9)
	p.out["serve.store_hit_us_p50"] = median(hit)
	p.out["serve.store_open_ms"] = median(open)
}

func (p *prober) wire() {
	grid := configs(coldGrid(p.env))
	var payload []byte
	var enc, dec []float64
	for i := 0; i < p.samples(20); i++ {
		t := time.Now()
		pts, err := serve.PointsFromGrid(grid)
		if err == nil {
			payload, err = json.Marshal(pts)
		}
		if err != nil {
			return
		}
		enc = append(enc, float64(time.Since(t).Nanoseconds())/1e3/float64(len(grid)))

		t = time.Now()
		var back []serve.Point
		if err := json.Unmarshal(payload, &back); err != nil {
			return
		}
		for _, pt := range back {
			if _, err := pt.Config(); err != nil {
				return
			}
		}
		dec = append(dec, float64(time.Since(t).Nanoseconds())/1e3/float64(len(grid)))
	}
	p.out["serve.wire_encode_us_per_point"] = median(enc)
	p.out["serve.wire_decode_us_per_point"] = median(dec)
}

// pollLag is how long the default client cadence leaves a finished cold
// job unnoticed: Client.Wait's return minus the first moment the server
// itself reports the job terminal.
func (p *prober) pollLag() {
	svc, err := startService(p.env.store, serve.ServerOptions{Workers: gridWorkers})
	if err != nil {
		return
	}
	defer svc.stop()
	client := &serve.Client{Base: svc.base}
	ctx := context.Background()
	var lags []float64
	for s := 0; s < p.samples(3); s++ { // few: each costs a default poll interval
		var grid []core.Config
		for i := 0; i < 8; i++ {
			grid = append(grid, with(base(p.env.seed, p.env.z, 0, 100), func(c *core.Config) { c.Seed = int64(1000*s + i) }))
		}
		pts, err := serve.PointsFromGrid(grid)
		if err != nil {
			return
		}
		st, err := client.Submit(ctx, pts)
		if err != nil {
			return
		}
		terminal := make(chan time.Time, 1)
		go func() {
			for {
				if js, ok := svc.srv.Status(st.ID); !ok || js.Terminal() {
					terminal <- time.Now()
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		_, err = client.Wait(ctx, st.ID)
		seen := time.Now()
		if done := <-terminal; err == nil {
			lags = append(lags, float64(seen.Sub(done).Nanoseconds())/1e6)
		}
	}
	p.out["serve.poll_lag_ms"] = median(lags)
}

// startPickup measures how long an idle cluster worker (default
// IdleWait) takes to pick up a job submitted while it sleeps: five
// coordinators with one worker each, so five independent samples cost
// one back-off interval of wall-clock. The returned function waits for
// them.
func (p *prober) startPickup() func() []float64 {
	n, idle := 5, 600*time.Millisecond
	copt := serve.ClusterOptions{}
	if p.env.z.small {
		// The test wants the code path, not the default cadence.
		n, idle, copt.LeaseTTL = 2, 20*time.Millisecond, 80*time.Millisecond
	}
	cfg := base(p.env.seed, p.env.z, 0, 1)
	var mu sync.Mutex
	var ms []float64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			svc, err := startService(p.env.store, serve.ServerOptions{Cluster: &copt})
			if err != nil {
				return
			}
			defer svc.stop()
			store, err := serve.Open(svc.dir)
			if err != nil {
				return
			}
			picked := make(chan time.Time, 1)
			w := &serve.Worker{ID: "idle", Coordinators: []string{svc.base}, Store: store, Workers: 1,
				Runner: func(c core.Config) (core.Result, error) {
					picked <- time.Now()
					return core.Run(c)
				}}
			if p.env.z.small {
				w.IdleWait = 5 * time.Millisecond
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				w.Run(ctx)
			}()
			defer func() {
				cancel()
				<-done
			}()
			time.Sleep(idle)
			pts, err := serve.PointsFromGrid([]core.Config{with(cfg, func(c *core.Config) { c.Seed = int64(i) })})
			if err != nil {
				return
			}
			submitted := time.Now()
			if _, err := fastClient(svc.base, nil).Submit(ctx, pts); err != nil {
				return
			}
			select {
			case at := <-picked:
				mu.Lock()
				ms = append(ms, float64(at.Sub(submitted).Nanoseconds())/1e6)
				mu.Unlock()
			case <-time.After(30 * time.Second):
			}
		}()
	}
	return func() []float64 {
		wg.Wait()
		return ms
	}
}
