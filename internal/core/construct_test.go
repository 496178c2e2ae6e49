package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapses/internal/bounded"
	"lapses/internal/fault"
	"lapses/internal/network"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// simPoint is the 16x16 paper mesh under static selection with a small
// fixed sample (100 + 1 000 messages, seed 1): a warm run of it is the unit
// TestConstructAllocs counts allocations over and TestEventModeSpeedup
// times.
func simPoint(load float64) Config {
	c := DefaultConfig()
	c.Selection = selection.StaticXY
	c.Load = load
	c.Warmup, c.Measure = 100, 1000
	c.Seed = 1
	return c
}

// TestConstructAllocs pins the recycled arena: a point over a warm
// structure and an idle arena of its shape allocates what the point itself
// needs — its Result plumbing, its stats collector, its messages — and
// nothing that scales with the node count or the cycles it runs for. The
// one-message row was 497 objects and 2.6 MB when every run built its
// 256-router network from nothing (137 and 2.5 MB of that in network.New).
// One make per node creeping back into a reset is 256 objects (1 024 at
// 32x32); one slab allocated instead of reused is at least 20 KB. The
// thousand-message rows hold a ceiling of about twice the reading in their
// comment (objects, KB; testing.AllocsPerRun, identical over five passes).
// The scheduled row is pinned as it is: each of its four epoch swaps still
// allocates its victim set and credit-recompute scratch.
func TestConstructAllocs(t *testing.T) {
	with := func(c Config, f func(*Config)) Config { f(&c); return c }
	oneMessage := with(DefaultConfig(), func(c *Config) { c.Load = 0.05; c.Warmup, c.Measure = 0, 1 })
	events := func(c *Config) { c.EventMode = true }
	bursty := with(simPoint(0.2), func(c *Config) { c.Burst = &traffic.Burst{OnFrac: 0.3, MeanOn: 200} })
	scheduled := with(simPoint(0.2), func(c *Config) {
		sched, err := fault.ParseSchedule(c.Mesh(), "119-120@400:1100,135-136@450:1150")
		if err != nil {
			t.Fatal(err)
		}
		c.Faults = sched
	})
	for _, tc := range []struct {
		name             string
		cfg              Config
		maxAllocs, maxKB float64
	}{
		{"one-message", oneMessage, 100, 256},                                                                // 17, 6
		{"load=0.005", simPoint(0.005), 42, 12},                                                              // 21, 6
		{"load=0.05", simPoint(0.05), 42, 12},                                                                // 21, 6
		{"load=0.20", simPoint(0.2), 48, 28},                                                                 // 24, 14
		{"load=0.50", simPoint(0.5), 56, 64},                                                                 // 28, 32
		{"32x32", with(simPoint(0.5), func(c *Config) { c.Dims = []int{32, 32} }), 76, 140},                  // 38, 70
		{"load=0.05/events", with(simPoint(0.05), events), 42, 14},                                           // 21, 7
		{"load=0.20/events", with(simPoint(0.2), events), 48, 28},                                            // 24, 14
		{"bursty", bursty, 52, 44},                                                                           // 26, 22
		{"bursty/notify", with(bursty, func(c *Config) { c.Selection = selection.NotifyMaxCredit }), 54, 44}, // 27, 22
		{"schedule", scheduled, 1600, 416},                                                                   // 785, 208
	} {
		if raceEnabled && tc.cfg.Measure > 1 {
			continue // the counts are the same under the detector and the runs fifteen times as long
		}
		run := func() {
			if _, err := Run(tc.cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the structure and an arena
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, run)
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / 1024 // AllocsPerRun adds a warm-up call of its own
		if allocs > tc.maxAllocs || kb > tc.maxKB {
			t.Errorf("%s: a run over a warm structure allocates %.0f objects and %.0f KB, want <= %.0f and <= %.0f", tc.name, allocs, kb, tc.maxAllocs, tc.maxKB)
		}
	}
}

// panicAfter is a traffic pattern that panics on its n-th destination
// draw: a fault planted in the middle of a Step.
type panicAfter struct {
	traffic.Pattern
	n *int
}

func (p panicAfter) Dest(src topology.NodeID, rng *rand.Rand) (topology.NodeID, bool) {
	if *p.n--; *p.n < 0 {
		panic("planted mid-Step")
	}
	return p.Pattern.Dest(src, rng)
}

// TestPanicDropsArena: a run that panics in the middle of a Step — sweep
// and serve recover those per point — must not hand its half-stepped
// network back: the free list is left without the arena the run checked
// out, and the next run (over a fresh arena) is correct.
func TestPanicDropsArena(t *testing.T) {
	c := smoke()
	c.Warmup, c.Measure = 50, 300
	pool := newArenaPool(maxIdleArenaBytes, 2)
	want, err := run(c, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.idle) != 1 {
		t.Fatalf("%d arenas idle after one run, want 1", len(pool.idle))
	}
	func() {
		defer func() {
			if r := recover(); r != "planted mid-Step" {
				t.Fatalf("recovered %v, want the planted panic", r)
			}
		}()
		draws := 100
		run(c, pool, func(nc *network.Config) { nc.Pattern = panicAfter{nc.Pattern, &draws} })
		t.Fatal("the planted panic did not fire")
	}()
	if len(pool.idle) != 0 || pool.bytes != 0 {
		t.Fatalf("%d arenas (%d bytes) idle after a run panicked; its arena must be dropped, not returned", len(pool.idle), pool.bytes)
	}
	got, err := run(c, pool, nil)
	if err != nil || got != want {
		t.Fatalf("the run after a panic returned %+v (err %v), want %+v", got, err, want)
	}
	if len(pool.idle) != 1 {
		t.Fatalf("%d arenas idle after the next run, want 1", len(pool.idle))
	}
}

// TestArenaPoolBounded pins the free list's bounds: never more idle bytes
// than its cap, never more idle arenas of one shape than its per-shape
// limit, oldest evicted first, an arena bigger than the whole cap not kept
// at all — and the process-wide list is built from the package constant and
// GOMAXPROCS, not from anything configurable.
func TestArenaPoolBounded(t *testing.T) {
	if arenas.maxBytes != maxIdleArenaBytes || maxIdleArenaBytes != 64<<20 || arenas.perShape != runtime.GOMAXPROCS(0) {
		t.Errorf("the process free list holds %d bytes and %d arenas a shape; want the constant 64 MB and GOMAXPROCS", arenas.maxBytes, arenas.perShape)
	}
	point := func(k int) Config {
		c := smoke()
		c.Dims = []int{k, k}
		c.Warmup, c.Measure = 0, 20
		return c
	}
	// Size the cap from a real arena: room for three 6x6 networks and a bit.
	probe := newArenaPool(maxIdleArenaBytes, 1)
	if _, err := run(point(6), probe, nil); err != nil {
		t.Fatal(err)
	}
	pool := newArenaPool(3*probe.bytes+probe.bytes/2, 2)
	check := func(when string) {
		t.Helper()
		sum, perShape := 0, map[network.Shape]int{}
		for _, a := range pool.idle {
			sum += a.bytes
			perShape[a.net.Shape()]++
		}
		if sum != pool.bytes || pool.bytes > pool.maxBytes {
			t.Fatalf("%s: %d bytes idle (accounted %d), cap %d", when, sum, pool.bytes, pool.maxBytes)
		}
		for s, n := range perShape {
			if n > pool.perShape {
				t.Fatalf("%s: %d idle arenas of shape %+v, limit %d", when, n, s, pool.perShape)
			}
		}
	}
	// More shapes than fit: the oldest go first.
	for _, k := range []int{3, 4, 5, 6, 5, 6, 7} {
		if _, err := run(point(k), pool, nil); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after a %dx%d run", k, k))
	}
	if pool.get(shapeOfPoint(t, point(3))) != nil {
		t.Error("the oldest arena survived six later ones in a list sized for about three")
	}
	if pool.get(shapeOfPoint(t, point(7))) == nil {
		t.Error("the newest arena is not on the list")
	}
	// More concurrent runs of one shape than the per-shape limit.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := run(point(4), pool, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	check("after four concurrent 4x4 runs")
	// An arena that does not fit at all is dropped, not traded for the list.
	before := len(pool.idle)
	if _, err := run(point(12), pool, nil); err != nil {
		t.Fatal(err)
	}
	if len(pool.idle) != before {
		t.Errorf("a 12x12 arena larger than the whole cap changed the list from %d to %d arenas", before, len(pool.idle))
	}
	check("after an oversized run")
}

// TestArenaPoolAges: an arena that sits idle through maxIdleGCs garbage
// collections is let go, a checkout in between starts the count again, and
// the hook that does the counting really is driven by the collector.
func TestArenaPoolAges(t *testing.T) {
	c := smoke()
	c.Warmup, c.Measure = 0, 20
	pool := newArenaPool(maxIdleArenaBytes, 2)
	idleAfter := func(ages int) int {
		if _, err := run(c, pool, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ages; i++ {
			pool.age()
		}
		return len(pool.idle)
	}
	if n := idleAfter(maxIdleGCs - 1); n != 1 {
		t.Fatalf("%d arenas idle after %d collections, want 1", n, maxIdleGCs-1)
	}
	if n := idleAfter(maxIdleGCs - 1); n != 1 {
		t.Fatalf("%d arenas idle: a checkout did not restart the arena's age", n)
	}
	if pool.age(); len(pool.idle) != 0 || pool.bytes != 0 {
		t.Fatalf("%d arenas (%d bytes) idle after %d collections, want none", len(pool.idle), pool.bytes, maxIdleGCs)
	}
	if idleAfter(0) != 1 {
		t.Fatal("no arena idle after a run")
	}
	pool.ageOnGC()
	for i := 0; i < 200 && func() bool { pool.mu.Lock(); defer pool.mu.Unlock(); return len(pool.idle) > 0 }(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if len(pool.idle) != 0 {
		t.Error("200 garbage collections did not age the idle arena out: the GC hook is not firing")
	}
}

// shapeOfPoint returns the shape Run would check out for c.
func shapeOfPoint(t *testing.T, c Config) network.Shape {
	t.Helper()
	var s network.Shape
	pool := newArenaPool(maxIdleArenaBytes, 1)
	if _, err := run(c, pool, func(nc *network.Config) { s = network.ShapeOf(*nc) }); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConcurrentRunsMatchSerial: eight goroutines running points of one
// shape at once — each holding its own arena, some recycled from the serial
// pass and from earlier rounds, some fresh — return what the same points
// return one at a time. The -race lane runs this: an arena shared by two
// runs is a data race on every field it has.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	points := make([]Config, 8)
	want := make([]Result, len(points))
	for i := range points {
		c := smoke()
		c.Warmup, c.Measure = 50, 300
		c.Load = 0.1 + 0.05*float64(i%4)
		c.Seed = int64(100 + i)
		points[i] = c
		var err error
		if want[i], err = Run(c); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for i := range points {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := Run(points[i]); err != nil || got != want[i] {
					t.Errorf("round %d point %d: concurrent run returned %+v (err %v), serial %+v", round, i, got, err, want[i])
				}
			}()
		}
		wg.Wait()
	}
}

// sameAnswers reports whether two plumbings' first epochs route every
// (node, destination) pair identically.
func sameAnswers(t *testing.T, a, b *plumbing) {
	t.Helper()
	if a.m.N() != b.m.N() {
		t.Fatalf("structures of %d and %d nodes", a.m.N(), b.m.N())
	}
	for id := topology.NodeID(0); int(id) < a.m.N(); id++ {
		for dst := topology.NodeID(0); int(dst) < a.m.N(); dst++ {
			if ra, rb := a.routes[0].Lookup(id, dst, 0), b.routes[0].Lookup(id, dst, 0); !ra.Equal(rb) {
				t.Fatalf("node %d -> %d: %v vs %v", id, dst, ra, rb)
			}
		}
	}
}

// TestPanickedBuildIsNotRemembered: a structure whose table build panics
// (an algorithm Validate lets through, routing has no case for) panics
// again on every run, so sweep and serve report a panic for each point;
// the plumbing cache must not hand the second run a remembered error.
func TestPanickedBuildIsNotRemembered(t *testing.T) {
	c := smoke()
	c.Algorithm = Alg(99)
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("run %d: want the unknown-algorithm panic", i)
				}
			}()
			_, err := Run(c)
			t.Errorf("run %d returned (error %v) instead of panicking", i, err)
		}()
	}
}

// TestPlumbingConcurrentFirstTouch: sweep workers whose points share a
// cold structure must build it once and all run over the same routes —
// the single-flight in cachedPlumbing (the -race lane runs this).
func TestPlumbingConcurrentFirstTouch(t *testing.T) {
	c := smoke()
	c.Algorithm, c.Table = AlgWestFirst, table.KindFull
	pc := bounded.New[string, *plumbingEntry](4)
	var builds atomic.Int32
	got := make([]*plumbing, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := cachedPlumbing(pc, c.structureKey(), func() (*plumbing, error) {
				builds.Add(1)
				return c.buildPlumbing()
			})
			if err != nil {
				t.Error(err)
			}
			got[g] = p
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("8 concurrent first touches built the structure %d times, want 1", n)
	}
	for g, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("goroutine %d got plumbing %p, goroutine 0 got %p", g, p, got[0])
		}
	}
	fresh, err := c.buildPlumbing()
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, got[0], fresh)
}

// TestPlumbingCacheBounded: the cache holds at most its cap of
// structures, forgets the oldest first, and a forgotten structure is
// rebuilt into tables that answer exactly as the first build did.
func TestPlumbingCacheBounded(t *testing.T) {
	const capacity = 3
	pc := bounded.New[string, *plumbingEntry](capacity)
	var cfgs []Config
	for _, alg := range []Alg{AlgDuato, AlgXY, AlgNorthLast, AlgWestFirst, AlgNegativeFirst} {
		c := smoke()
		c.Algorithm = alg
		cfgs = append(cfgs, c)
	}
	builds := 0
	get := func(c Config) *plumbing {
		t.Helper()
		p, err := cachedPlumbing(pc, c.structureKey(), func() (*plumbing, error) {
			builds++
			return c.buildPlumbing()
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := get(cfgs[0])
	for _, c := range cfgs[1:] {
		get(c)
	}
	if n := pc.Len(); n != capacity {
		t.Fatalf("%d structures cached after %d distinct ones, want the cap %d", n, len(cfgs), capacity)
	}
	if get(cfgs[len(cfgs)-1]); builds != len(cfgs) {
		t.Errorf("the newest structure was rebuilt: %d builds for %d structures", builds, len(cfgs))
	}
	again := get(cfgs[0])
	if builds != len(cfgs)+1 || again == first {
		t.Fatalf("the oldest structure was not evicted (%d builds, same plumbing: %v)", builds, again == first)
	}
	sameAnswers(t, first, again)
}

// TestStructuresShareRoutes: es, full and interval tables encode the
// algorithm itself, so over one routing function they are one structure,
// built once; the meta kinds route by their own mapping and build their
// own. kernel-short's 30 structures — {8x8, 16x16, 32x32} x ({es, full,
// meta-row} x {duato, xy, north-last} + interval/yx) — cost 21 builds, and
// an es/yx visit after each interval/yx one costs none.
func TestStructuresShareRoutes(t *testing.T) {
	pc := bounded.New[string, *plumbingEntry](maxStructures)
	builds := 0
	byAlg := map[string]*plumbing{}
	visit := func(c Config) {
		t.Helper()
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		p, err := cachedPlumbing(pc, c.structureKey(), func() (*plumbing, error) {
			builds++
			return c.buildPlumbing()
		})
		if err != nil {
			t.Fatal(err)
		}
		if c.Table == table.KindMetaRow {
			return
		}
		k := fmt.Sprintf("%v/%s", c.Dims, c.Algorithm)
		if q, ok := byAlg[k]; ok && q != p {
			t.Errorf("%s: %s got its own structure", k, c.Table)
		}
		byAlg[k] = p
	}
	for _, k := range []int{8, 16, 32} {
		c := smoke()
		c.Dims = []int{k, k}
		for _, tb := range []table.Kind{table.KindES, table.KindFull, table.KindMetaRow} {
			for _, alg := range []Alg{AlgDuato, AlgXY, AlgNorthLast} {
				c.Table, c.Algorithm = tb, alg
				visit(c)
			}
		}
		c.Table, c.Algorithm = table.KindInterval, AlgYX
		visit(c)
		c.Table = table.KindES
		visit(c)
	}
	if builds != 21 {
		t.Errorf("30 structures took %d builds, want 21", builds)
	}
}
