package lfib

import (
	"math"
	"math/rand"
	"testing"
)

// TestReseedReplaysFreshStream: a source that expanded, once reseeded, is
// the one New builds — vector cleared — and replays the fresh stream.
func TestReseedReplaysFreshStream(t *testing.T) {
	s := New(42, new(Vec))
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	if !s.expanded() {
		t.Fatal("1000 draws did not expand the source")
	}
	for _, seed := range []int64{42, 43} {
		s.Seed(seed)
		if *s.vec != (Vec{}) || s != New(seed, s.vec) {
			t.Fatalf("reseeded %d: the source is not the one New builds", seed)
		}
		ref := rand.NewSource(seed)
		for i := 0; i < 1000; i++ {
			if r, g := ref.Int63(), s.Int63(); r != g {
				t.Fatalf("reseeded %d: Int63 #%d = %d want %d", seed, i, g, r)
			}
		}
	}
}

// FuzzFibSource drives a source and math/rand's through the same sequence
// of Rand calls: each byte of ops picks Int63, Uint64, ExpFloat64, Intn or
// Float64, and repeats it up to 481 times as its high nibble says, so
// short inputs reach the expansion at draw 274 and the wrap at draw 607.
func FuzzFibSource(f *testing.F) {
	f.Add(int64(0), []byte{0x00, 0xf1, 0xf2})
	f.Add(int64(1), []byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb})
	f.Add(int64(-int32max), []byte{0x13, 0x24, 0xf0, 0xf0, 0xf2})
	f.Add(int64(math.MinInt64), []byte{0x83, 0x93, 0xa3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		src := New(seed, new(Vec))
		ref, got := rand.New(rand.NewSource(seed)), rand.New(&src)
		for i, op := range ops {
			for range 1 + int(op>>4)*32 {
				var r, g any
				switch op % 5 {
				case 0:
					r, g = ref.Int63(), got.Int63()
				case 1:
					r, g = ref.Uint64(), got.Uint64()
				case 2:
					r, g = ref.ExpFloat64(), got.ExpFloat64()
				case 3:
					n := 1 + int(op)*37
					r, g = ref.Intn(n), got.Intn(n)
				case 4:
					r, g = ref.Float64(), got.Float64()
				}
				if r != g {
					t.Fatalf("seed %d: op #%d (%d) = %v want %v", seed, i, op%5, g, r)
				}
			}
		}
	})
}
