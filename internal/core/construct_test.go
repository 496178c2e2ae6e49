package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"lapses/internal/bounded"
	"lapses/internal/table"
	"lapses/internal/topology"
)

// TestConstructAllocs pins the arena: a point over a warm structure is
// built from a fixed number of slabs, so its allocation count must not
// scale with the node count. 256 nodes at even six allocations each
// would break the bound — which is what a per-node make creeping back
// into router, network or traffic construction looks like.
func TestConstructAllocs(t *testing.T) {
	c := DefaultConfig()
	c.Load = 0.05
	c.Warmup, c.Measure = 0, 1
	if _, err := Run(c); err != nil { // warm the structure
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1500 {
		t.Errorf("a 16x16 one-message run over a warm structure allocates %.0f objects, want <= 1500", allocs)
	}
}

// sameAnswers reports whether two table sets route every (node,
// destination) pair identically.
func sameAnswers(t *testing.T, a, b []table.Table) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("table sets of %d and %d nodes", len(a), len(b))
	}
	for id := range a {
		for dst := range a {
			if ra, rb := a[id].Lookup(topology.NodeID(dst), 0), b[id].Lookup(topology.NodeID(dst), 0); !ra.Equal(rb) {
				t.Fatalf("node %d -> %d: %v vs %v", id, dst, ra, rb)
			}
		}
	}
}

// TestPlumbingConcurrentFirstTouch: sweep workers whose points share a
// cold structure must build it once and all run over the same tables —
// the single-flight in cachedPlumbing, with the parallel table pass
// underneath it (the -race lane runs this).
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
	sameAnswers(t, got[0].tbls, fresh.tbls)
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
	sameAnswers(t, first.tbls, again.tbls)
}
