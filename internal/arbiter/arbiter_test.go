package arbiter

import (
	"testing"
	"testing/quick"
)

func TestRoundRobinRotation(t *testing.T) {
	a := MakeRoundRobin(4)
	// All requesting: grants must rotate 0,1,2,3,0,...
	for i := 0; i < 8; i++ {
		if g := a.Grant(0b1111); g != i%4 {
			t.Fatalf("grant %d = %d want %d", i, g, i%4)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	a := MakeRoundRobin(4)
	if g := a.Grant(0b1010); g != 1 {
		t.Fatalf("grant = %d want 1", g)
	}
	if g := a.Grant(0b1010); g != 3 {
		t.Fatalf("grant = %d want 3", g)
	}
	if g := a.Grant(0b1010); g != 1 {
		t.Fatalf("grant = %d want 1 (wrapped)", g)
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	a := MakeRoundRobin(8)
	if g := a.Grant(0); g != -1 {
		t.Fatalf("grant on empty = %d", g)
	}
	// Priority must not move on a failed grant.
	if g := a.Grant(0b1); g != 0 {
		t.Fatalf("grant = %d want 0", g)
	}
}

func TestSizePanics(t *testing.T) {
	for _, f := range []func(){
		func() { MakeRoundRobin(0) },
		func() { MakeRoundRobin(65) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: the arbiter always grants a requesting index, and never a
// non-requesting one.
func TestQuickGrantValidity(t *testing.T) {
	a := MakeRoundRobin(16)
	f := func(reqs uint16) bool {
		g := a.Grant(uint64(reqs))
		if reqs == 0 {
			return g == -1
		}
		return g >= 0 && g < 16 && reqs&(1<<g) != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: under persistent full load the arbiter is starvation-free and
// fair within one slot over any window.
func TestFairnessUnderLoad(t *testing.T) {
	a := MakeRoundRobin(8)
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[a.Grant(0xFF)]++
	}
	for i, c := range counts {
		if c != 1000 {
			t.Errorf("requester %d served %d/8000 (want exactly 1000)", i, c)
		}
	}
}

// The full-width arbiter (64 requesters, the router's crossbar ceiling)
// must wrap its one-byte priority pointer correctly.
func TestRoundRobinFullWidth(t *testing.T) {
	a := MakeRoundRobin(64)
	for i := 0; i < 130; i++ {
		if g := a.Grant(^uint64(0)); g != i%64 {
			t.Fatalf("grant %d = %d want %d", i, g, i%64)
		}
	}
}
