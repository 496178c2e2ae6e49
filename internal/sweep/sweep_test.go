package sweep

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapses/internal/core"
	"lapses/internal/traffic"
)

// gridOf returns n distinct configs; Seed carries the point index so a
// scripted Runner can tell points apart.
func gridOf(n int) []core.Config {
	grid := make([]core.Config, n)
	for i := range grid {
		c := core.DefaultConfig()
		c.Seed = int64(i)
		grid[i] = c
	}
	return grid
}

// TestOrderedOutput makes early points finish last and checks outcomes
// still come back in grid order.
func TestOrderedOutput(t *testing.T) {
	t.Parallel()
	grid := gridOf(16)
	opt := Options{
		Workers: 8,
		Runner: func(c core.Config) (core.Result, error) {
			// Earlier indices sleep longer, inverting completion order.
			time.Sleep(time.Duration(len(grid)-int(c.Seed)) * time.Millisecond)
			return core.Result{AvgLatency: float64(c.Seed)}, nil
		},
	}
	outs, err := Run(context.Background(), grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(grid) {
		t.Fatalf("outcomes = %d want %d", len(outs), len(grid))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("point %d: %v", i, o.Err)
		}
		if int(o.Result.AvgLatency) != i || o.Config.Seed != int64(i) {
			t.Errorf("slot %d holds point %v/%v", i, o.Result.AvgLatency, o.Config.Seed)
		}
	}
}

// TestErrorCapture verifies a failing point is reported in place without
// stopping the sweep — the replacement for the old mustRun panic.
func TestErrorCapture(t *testing.T) {
	t.Parallel()
	grid := gridOf(5)
	boom := errors.New("boom")
	opt := Options{
		Workers: 2,
		Runner: func(c core.Config) (core.Result, error) {
			if c.Seed == 2 {
				return core.Result{}, boom
			}
			return core.Result{AvgLatency: 1}, nil
		},
	}
	outs, err := Run(context.Background(), grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if i == 2 {
			if !errors.Is(o.Err, boom) {
				t.Errorf("point 2 err = %v want boom", o.Err)
			}
			continue
		}
		if o.Err != nil {
			t.Errorf("point %d: unexpected error %v", i, o.Err)
		}
	}
}

// TestConfigErrorThroughCoreRun exercises the real core.Run error path:
// an invalid point carries its validation error, valid points still run.
func TestConfigErrorThroughCoreRun(t *testing.T) {
	t.Parallel()
	good := core.DefaultConfig()
	good.Dims = []int{4, 4}
	good.Warmup, good.Measure = 20, 200
	bad := good
	bad.Dims = nil // fails Validate
	outs, err := Run(context.Background(), []core.Config{good, bad}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil {
		t.Errorf("valid point failed: %v", outs[0].Err)
	}
	if outs[0].Result.Delivered == 0 {
		t.Error("valid point delivered nothing")
	}
	if outs[1].Err == nil {
		t.Error("invalid point did not report its configuration error")
	}
}

// TestCancellationMidGrid blocks the first points, cancels, and checks
// that unstarted points carry ctx.Err while Run reports the cancellation.
func TestCancellationMidGrid(t *testing.T) {
	t.Parallel()
	const workers = 2
	grid := gridOf(10)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, len(grid))
	release := make(chan struct{})
	opt := Options{
		Workers: workers,
		Runner: func(c core.Config) (core.Result, error) {
			started <- struct{}{}
			<-release
			return core.Result{AvgLatency: 1}, nil
		},
	}
	done := make(chan struct{})
	var outs []Outcome
	var err error
	go func() {
		defer close(done)
		outs, err = Run(ctx, grid, opt)
	}()
	// Wait until both workers are mid-point, then cancel. The dispatcher
	// is parked in its select with no worker free, so ctx.Done is its
	// only ready case; give it a beat to stop dispatching before the
	// in-flight points are released.
	for i := 0; i < workers; i++ {
		<-started
	}
	cancel()
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-done

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v want context.Canceled", err)
	}
	ran, skipped := 0, 0
	for i, o := range outs {
		switch {
		case o.Err == nil:
			ran++
		case errors.Is(o.Err, context.Canceled):
			skipped++
		default:
			t.Errorf("point %d: unexpected error %v", i, o.Err)
		}
	}
	// The in-flight points (and possibly a queued handoff) finish; the
	// rest must be skipped.
	if ran == 0 {
		t.Error("no in-flight point finished")
	}
	if skipped == 0 {
		t.Error("cancellation skipped nothing")
	}
	if ran+skipped != len(grid) {
		t.Errorf("ran %d + skipped %d != %d", ran, skipped, len(grid))
	}
}

// TestMemoCache checks duplicate points simulate once and the hit/miss
// accounting matches.
func TestMemoCache(t *testing.T) {
	t.Parallel()
	base := gridOf(4)
	grid := append(append([]core.Config{}, base...), base...) // every point twice
	var calls atomic.Int64
	cache := NewCache()
	opt := Options{
		Workers: 4,
		Cache:   cache,
		Runner: func(c core.Config) (core.Result, error) {
			calls.Add(1)
			return core.Result{AvgLatency: float64(c.Seed)}, nil
		},
	}
	outs, err := Run(context.Background(), grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(base)) {
		t.Errorf("simulated %d points, want %d (duplicates must memoize)", got, len(base))
	}
	if cache.Misses() != int64(len(base)) || cache.Hits() != int64(len(base)) {
		t.Errorf("hits/misses = %d/%d want %d/%d", cache.Hits(), cache.Misses(), len(base), len(base))
	}
	if cache.Len() != len(base) {
		t.Errorf("cache holds %d results, want %d", cache.Len(), len(base))
	}
	cachedCount := 0
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("point %d: %v", i, o.Err)
		}
		if int(o.Result.AvgLatency) != int(grid[i].Seed) {
			t.Errorf("point %d got result for seed %v", i, o.Result.AvgLatency)
		}
		if o.Cached {
			cachedCount++
		}
	}
	if cachedCount != len(base) {
		t.Errorf("cached outcomes = %d want %d", cachedCount, len(base))
	}
}

// TestMemoCacheSingleFlight launches identical points concurrently and
// checks only one simulates while the rest wait for it.
func TestMemoCacheSingleFlight(t *testing.T) {
	t.Parallel()
	cache := NewCache()
	cfg := core.DefaultConfig()
	var calls atomic.Int64
	run := func(core.Config) (core.Result, error) {
		calls.Add(1)
		time.Sleep(5 * time.Millisecond) // widen the in-flight window
		return core.Result{AvgLatency: 7}, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := cache.Do(context.Background(), cfg, run)
			if err != nil || res.AvgLatency != 7 {
				t.Errorf("do = %v, %v", res, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("simulated %d times, want 1", calls.Load())
	}
}

// TestMemoCacheDoesNotCacheErrors: a failed point must be retried by the
// next request, not pinned.
func TestMemoCacheDoesNotCacheErrors(t *testing.T) {
	t.Parallel()
	cache := NewCache()
	cfg := core.DefaultConfig()
	fail := true
	run := func(core.Config) (core.Result, error) {
		if fail {
			return core.Result{}, errors.New("transient")
		}
		return core.Result{AvgLatency: 3}, nil
	}
	if _, _, err := cache.Do(context.Background(), cfg, run); err == nil {
		t.Fatal("first call should fail")
	}
	if cache.Len() != 0 {
		t.Fatalf("error was cached (len %d)", cache.Len())
	}
	fail = false
	res, cached, err := cache.Do(context.Background(), cfg, run)
	if err != nil || cached || res.AvgLatency != 3 {
		t.Errorf("retry = %v cached=%v err=%v", res, cached, err)
	}
}

// TestTraceIdentityInKey: a trace is keyed by content. Equal messages from
// two NewTrace calls share a memo slot — however the input interleaved the
// nodes — any differing message does not, and a config without a trace
// keeps the key term every stored result already carries.
func TestTraceIdentityInKey(t *testing.T) {
	t.Parallel()
	key := func(msgs ...traffic.TraceMsg) string {
		tr, err := traffic.NewTrace(msgs)
		if err != nil {
			t.Fatal(err)
		}
		c := core.DefaultConfig()
		c.Trace = tr
		return c.Key()
	}
	msgs := []traffic.TraceMsg{
		{At: 5, Src: 1, Dst: 2, Length: 4},
		{At: 0, Src: 3, Dst: 1, Length: 2},
		{At: 5, Src: 1, Dst: 3, Length: 4},
	}
	base := key(msgs...)
	if key(msgs...) != base {
		t.Error("equal content from two NewTrace calls keys apart")
	}
	if key(msgs[1], msgs[0], msgs[2]) != base {
		t.Error("interleaving the nodes differently in the input changed the key")
	}
	if key(msgs[2], msgs[1], msgs[0]) == base {
		t.Error("swapping one node's two same-cycle messages (its injection order) left the key unchanged")
	}
	if key(msgs[:2]...) == base {
		t.Error("dropping a message left the key unchanged")
	}
	for i := range msgs {
		for name, change := range map[string]func(*traffic.TraceMsg){
			"At":     func(m *traffic.TraceMsg) { m.At++ },
			"Src":    func(m *traffic.TraceMsg) { m.Src += 4 },
			"Dst":    func(m *traffic.TraceMsg) { m.Dst += 4 },
			"Length": func(m *traffic.TraceMsg) { m.Length++ },
		} {
			changed := slices.Clone(msgs)
			change(&changed[i])
			if key(changed...) == base {
				t.Errorf("changing message %d's %s left the key unchanged", i, name)
			}
		}
	}
	if k := core.DefaultConfig().Key(); !strings.Contains(k, ",tr0x0,") {
		t.Errorf("a config without a trace lost its tr0x0 key term: %s", k)
	}
}

// smallGrid is a real-simulation grid small enough for race runs.
func smallGrid() []core.Config {
	var grid []core.Config
	for _, pat := range []traffic.Kind{traffic.Uniform, traffic.Transpose} {
		for _, load := range []float64{0.1, 0.3} {
			c := core.DefaultConfig()
			c.Dims = []int{8, 8}
			c.Pattern = pat
			c.Load = load
			c.Warmup, c.Measure = 100, 1200
			c.Seed = 99
			grid = append(grid, c)
		}
	}
	return grid
}

// TestSweepDeterminism is the regression test for the core guarantee: the
// same grid yields bit-identical Results on 1 worker and on N workers,
// and across repeated runs.
func TestSweepDeterminism(t *testing.T) {
	t.Parallel()
	grid := smallGrid()
	results := func(workers int) []core.Result {
		outs, err := Run(context.Background(), grid, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rs := make([]core.Result, len(outs))
		for i, o := range outs {
			if o.Err != nil {
				t.Fatalf("point %d: %v", i, o.Err)
			}
			rs[i] = o.Result
		}
		return rs
	}
	serial := results(1)
	for _, workers := range []int{4, 4, 1} { // N, repeated N, repeated serial
		got := results(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d point %d diverged:\nserial   %+v\nparallel %+v",
					workers, i, serial[i], got[i])
			}
		}
	}
	for i, r := range serial {
		if r.Delivered == 0 && !r.Saturated {
			t.Errorf("point %d delivered nothing", i)
		}
	}
}

// TestSweepDeterminismWithCache: serving a point from the memo cache must
// hand back the exact same Result bits as simulating it.
func TestSweepDeterminismWithCache(t *testing.T) {
	t.Parallel()
	grid := smallGrid()
	doubled := append(append([]core.Config{}, grid...), grid...)
	outs, err := Run(context.Background(), doubled, Options{Workers: 4, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		a, b := outs[i], outs[i+len(grid)]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("point %d errs: %v %v", i, a.Err, b.Err)
		}
		if a.Result != b.Result {
			t.Errorf("point %d: cached result differs", i)
		}
	}
}

func ExampleRun() {
	// Declare the grid as data: one config per point, in output order.
	var grid []core.Config
	for _, load := range []float64{0.1, 0.2} {
		c := core.DefaultConfig()
		c.Dims = []int{4, 4}
		c.Warmup, c.Measure = 50, 500
		c.Load = load
		grid = append(grid, c)
	}
	outs, err := Run(context.Background(), grid, Options{Workers: 2})
	if err != nil {
		fmt.Println("sweep:", err)
		return
	}
	for _, o := range outs {
		fmt.Printf("load %.1f: delivered %v messages\n", o.Config.Load, o.Err == nil && o.Result.Delivered > 0)
	}
	// Output:
	// load 0.1: delivered true messages
	// load 0.2: delivered true messages
}

// TestPanicIsolatedPerPoint: a panicking point must come back as a
// *PanicError Outcome while the rest of the grid completes — one bad
// config cannot kill the process hosting the sweep.
func TestPanicIsolatedPerPoint(t *testing.T) {
	t.Parallel()
	grid := gridOf(6)
	opt := Options{
		Workers: 3,
		Runner: func(c core.Config) (core.Result, error) {
			if c.Seed == 3 {
				panic("scripted point failure")
			}
			return core.Result{AvgLatency: float64(c.Seed)}, nil
		},
	}
	outs, err := Run(context.Background(), grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if i == 3 {
			var pe *PanicError
			if !errors.As(o.Err, &pe) {
				t.Fatalf("point 3 err = %v, want *PanicError", o.Err)
			}
			if pe.Value != "scripted point failure" || len(pe.Stack) == 0 {
				t.Errorf("PanicError = {%v, %d-byte stack}", pe.Value, len(pe.Stack))
			}
			continue
		}
		if o.Err != nil {
			t.Errorf("point %d: %v", i, o.Err)
		}
	}
}

// TestPanicIsolatedThroughCoreRun drives the real panic path: an
// algorithm identifier outside the known set passes Validate but hits
// the kernel's unknown-algorithm panic during construction. The point
// must error; its neighbors must still simulate.
func TestPanicIsolatedThroughCoreRun(t *testing.T) {
	t.Parallel()
	good := core.DefaultConfig()
	good.Dims = []int{4, 4}
	good.Warmup, good.Measure = 20, 200
	bad := good
	bad.Algorithm = core.Alg(99)
	outs, err := Run(context.Background(), []core.Config{good, bad, good}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if !errors.As(outs[1].Err, &pe) {
		t.Fatalf("unknown-algorithm point err = %v, want *PanicError", outs[1].Err)
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil {
			t.Errorf("point %d: %v", i, outs[i].Err)
		}
		if outs[i].Result.Delivered == 0 {
			t.Errorf("point %d delivered nothing", i)
		}
	}
}

// TestPanicResolvesCacheWaiters: when the cache leader panics, waiters
// on the same key must receive the error rather than hang.
func TestPanicResolvesCacheWaiters(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultConfig()
	grid := []core.Config{cfg, cfg, cfg, cfg}
	outs, err := Run(context.Background(), grid, Options{
		Workers: 4,
		Cache:   NewCache(),
		Runner: func(core.Config) (core.Result, error) {
			time.Sleep(2 * time.Millisecond) // widen the in-flight window
			panic("leader down")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		var pe *PanicError
		if !errors.As(o.Err, &pe) {
			t.Errorf("point %d err = %v, want *PanicError", i, o.Err)
		}
	}
}

// TestOnPointStreamsProgress: the hook must fire once per point, from
// workers, with the point's final outcome.
func TestOnPointStreamsProgress(t *testing.T) {
	t.Parallel()
	grid := gridOf(9)
	var mu sync.Mutex
	seen := map[int]Outcome{}
	opt := Options{
		Workers: 3,
		Runner: func(c core.Config) (core.Result, error) {
			if c.Seed == 4 {
				return core.Result{}, errors.New("bad point")
			}
			return core.Result{AvgLatency: float64(c.Seed)}, nil
		},
		OnPoint: func(i int, o Outcome) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[i]; dup {
				t.Errorf("OnPoint fired twice for %d", i)
			}
			seen[i] = o
		},
	}
	if _, err := Run(context.Background(), grid, opt); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(grid) {
		t.Fatalf("OnPoint fired for %d of %d points", len(seen), len(grid))
	}
	for i, o := range seen {
		if i == 4 {
			if o.Err == nil {
				t.Error("OnPoint for the failing point carried no error")
			}
			continue
		}
		if o.Err != nil || int(o.Result.AvgLatency) != i {
			t.Errorf("OnPoint %d = %+v", i, o)
		}
	}
}
