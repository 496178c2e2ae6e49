package bounded

import (
	"sync"
	"testing"
)

func TestEvictsOldestFirst(t *testing.T) {
	c := New[int, string](3)
	for i := 0; i < 5; i++ {
		if _, loaded := c.LoadOrStore(i, "v"); loaded {
			t.Fatalf("key %d reported as already stored", i)
		}
		if want := min(i+1, 3); c.Len() != want {
			t.Fatalf("after %d stores: %d entries, want %d", i+1, c.Len(), want)
		}
	}
	for k, want := range map[int]bool{0: false, 1: false, 2: true, 3: true, 4: true} {
		if _, ok := c.Load(k); ok != want {
			t.Errorf("key %d present = %v, want %v", k, ok, want)
		}
	}
	// A hit neither refreshes nor replaces: 2 is still the oldest.
	if v, loaded := c.LoadOrStore(2, "other"); !loaded || v != "v" {
		t.Fatalf("LoadOrStore on a present key = %q, %v", v, loaded)
	}
	c.LoadOrStore(5, "v")
	if _, ok := c.Load(2); ok {
		t.Error("key 2 survived the store that should have evicted it")
	}
}

func TestConcurrentStoresAgree(t *testing.T) {
	c := New[int, int](4)
	var wg sync.WaitGroup
	got := make([]int, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], _ = c.LoadOrStore(7, g)
		}()
	}
	wg.Wait()
	for g, v := range got {
		if v != got[0] {
			t.Fatalf("goroutine %d saw %d, goroutine 0 saw %d", g, v, got[0])
		}
	}
}
