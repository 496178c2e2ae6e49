package selection

import (
	"testing"

	"lapses/internal/flow"
	"lapses/internal/topology"
)

// fakeView is a scriptable PortView.
type fakeView struct {
	busy    map[topology.Port]int
	credits map[topology.Port]int
	use     map[topology.Port]uint64
	last    map[topology.Port]int64
	cong    map[topology.Port]uint8
}

func (f *fakeView) RemoteCongestion(p topology.Port) uint8 { return f.cong[p] }

func (f *fakeView) BusyVCs(p topology.Port) int { return f.busy[p] }
func (f *fakeView) Credits(p topology.Port) int { return f.credits[p] }
func (f *fakeView) UseCount(p topology.Port) uint64 {
	return f.use[p]
}
func (f *fakeView) LastUsed(p topology.Port) int64 {
	if v, ok := f.last[p]; ok {
		return v
	}
	return -1
}

func twoCands() flow.RouteSet {
	var rs flow.RouteSet
	rs.Add(flow.Candidate{Port: 1, Adaptive: 0b1110, Escape: 0b0001}) // +X
	rs.Add(flow.Candidate{Port: 3, Adaptive: 0b1110})                 // +Y
	return rs
}

func TestStaticXYPrefersFirst(t *testing.T) {
	s := New(StaticXY, 0)
	rs := twoCands()
	if got := s.Select(nil, rs, 0b11); got != 0 {
		t.Errorf("both eligible: got %d want 0", got)
	}
	if got := s.Select(nil, rs, 0b10); got != 1 {
		t.Errorf("only Y eligible: got %d want 1", got)
	}
}

func TestMinMux(t *testing.T) {
	s := New(MinMux, 0)
	v := &fakeView{busy: map[topology.Port]int{1: 3, 3: 1}}
	if got := s.Select(v, twoCands(), 0b11); got != 1 {
		t.Errorf("got %d want 1 (port 3 less multiplexed)", got)
	}
	// Tie prefers dimension order.
	v.busy[3] = 3
	if got := s.Select(v, twoCands(), 0b11); got != 0 {
		t.Errorf("tie: got %d want 0", got)
	}
}

func TestLFU(t *testing.T) {
	s := New(LFU, 0)
	v := &fakeView{use: map[topology.Port]uint64{1: 100, 3: 40}}
	if got := s.Select(v, twoCands(), 0b11); got != 1 {
		t.Errorf("got %d want 1 (port 3 less used)", got)
	}
	// Respect eligibility even when the other port scores better.
	if got := s.Select(v, twoCands(), 0b01); got != 0 {
		t.Errorf("got %d want 0 (only X eligible)", got)
	}
}

func TestLRU(t *testing.T) {
	s := New(LRU, 0)
	v := &fakeView{last: map[topology.Port]int64{1: 900, 3: 100}}
	if got := s.Select(v, twoCands(), 0b11); got != 1 {
		t.Errorf("got %d want 1 (port 3 older)", got)
	}
	// A never-used port (LastUsed -1) wins over any used port.
	v2 := &fakeView{last: map[topology.Port]int64{1: 5}}
	if got := s.Select(v2, twoCands(), 0b11); got != 1 {
		t.Errorf("got %d want 1 (never used)", got)
	}
}

func TestMaxCredit(t *testing.T) {
	s := New(MaxCredit, 0)
	v := &fakeView{credits: map[topology.Port]int{1: 10, 3: 70}}
	if got := s.Select(v, twoCands(), 0b11); got != 1 {
		t.Errorf("got %d want 1 (port 3 more credits)", got)
	}
	v.credits[3] = 10
	if got := s.Select(v, twoCands(), 0b11); got != 0 {
		t.Errorf("tie: got %d want 0", got)
	}
}

func TestRandomIsEligibleAndCoversBoth(t *testing.T) {
	s := New(Random, 42)
	rs := twoCands()
	seen := map[int]int{}
	for i := 0; i < 200; i++ {
		got := s.Select(nil, rs, 0b11)
		if got != 0 && got != 1 {
			t.Fatalf("out of range: %d", got)
		}
		seen[got]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("random never picked one side: %v", seen)
	}
	for i := 0; i < 50; i++ {
		if got := s.Select(nil, rs, 0b10); got != 1 {
			t.Fatalf("restricted random picked %d", got)
		}
	}
}

func TestRandomDeterministicForSeed(t *testing.T) {
	a, b := New(Random, 7), New(Random, 7)
	rs := twoCands()
	for i := 0; i < 100; i++ {
		if a.Select(nil, rs, 0b11) != b.Select(nil, rs, 0b11) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestAllSelectorsRespectEligibility(t *testing.T) {
	v := &fakeView{
		busy:    map[topology.Port]int{1: 0, 3: 9},
		credits: map[topology.Port]int{1: 99, 3: 0},
		use:     map[topology.Port]uint64{1: 0, 3: 999},
		last:    map[topology.Port]int64{1: -1, 3: 999},
	}
	rs := twoCands()
	for _, k := range Kinds {
		s := New(k, 1)
		// Port 1 scores best on every metric, but only candidate 1
		// (port 3) is eligible.
		if got := s.Select(v, rs, 0b10); got != 1 {
			t.Errorf("%s ignored eligibility: got %d", k, got)
		}
	}
}

func TestNotifyPrefersUncongestedQuadrant(t *testing.T) {
	for _, k := range []Kind{NotifyLRU, NotifyLFU, NotifyMaxCredit} {
		s := New(k, 0)
		// Port 1 scores best on every local metric but its downstream
		// quadrant is congested; the filter must steer to port 3.
		v := &fakeView{
			busy:    map[topology.Port]int{1: 0, 3: 9},
			credits: map[topology.Port]int{1: 99, 3: 0},
			use:     map[topology.Port]uint64{1: 0, 3: 999},
			last:    map[topology.Port]int64{1: -1, 3: 999},
			cong:    map[topology.Port]uint8{1: 3, 3: 1},
		}
		if got := s.Select(v, twoCands(), 0b11); got != 1 {
			t.Errorf("%s: got %d want 1 (port 1 congested downstream)", k, got)
		}
		// Eligibility still dominates: a congested port must be chosen
		// when it is the only eligible one.
		if got := s.Select(v, twoCands(), 0b01); got != 0 {
			t.Errorf("%s: got %d want 0 (only congested port eligible)", k, got)
		}
	}
}

func TestNotifyFallsBackToInnerOnTies(t *testing.T) {
	// Equal congestion levels (including the all-zero no-signal state)
	// must delegate exactly to the wrapped local heuristic.
	v := &fakeView{
		last:    map[topology.Port]int64{1: 900, 3: 100},
		use:     map[topology.Port]uint64{1: 100, 3: 40},
		credits: map[topology.Port]int{1: 10, 3: 70},
	}
	for _, k := range []Kind{NotifyLRU, NotifyLFU, NotifyMaxCredit} {
		if got := New(k, 0).Select(v, twoCands(), 0b11); got != 1 {
			t.Errorf("%s with no signal: got %d want 1 (inner heuristic)", k, got)
		}
	}
	v.cong = map[topology.Port]uint8{1: 2, 3: 2}
	for _, k := range []Kind{NotifyLRU, NotifyLFU, NotifyMaxCredit} {
		if got := New(k, 0).Select(v, twoCands(), 0b11); got != 1 {
			t.Errorf("%s with tied signal: got %d want 1 (inner heuristic)", k, got)
		}
	}
}

func TestIsNotify(t *testing.T) {
	for _, k := range Kinds {
		want := k == NotifyLRU || k == NotifyLFU || k == NotifyMaxCredit
		if k.IsNotify() != want {
			t.Errorf("%s.IsNotify() = %v want %v", k, k.IsNotify(), want)
		}
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v: %v %v", k, got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("expected error for unknown kind")
	}
	// The text form, which flags and the wire use, is the same name.
	for _, k := range Kinds {
		b, err := k.MarshalText()
		var got Kind
		if err != nil || string(b) != k.String() || got.UnmarshalText(b) != nil || got != k {
			t.Errorf("text round trip %v: %q %v -> %v", k, b, err, got)
		}
	}
	if got := Kinds[1]; got.UnmarshalText([]byte("nope")) == nil {
		t.Error("UnmarshalText accepted an unknown name")
	}
}

// TestRandomChoicesPinned pins what Random picks for a few seeds, as
// literal values, so that a change of its generator must reproduce
// math/rand's streams exactly. Each selector makes 1400 choices over
// eligible sets of two, three and four candidates; the first 48 are
// spelled out and all of them are folded into a digest.
func TestRandomChoicesPinned(t *testing.T) {
	var rs flow.RouteSet
	for _, p := range []topology.Port{1, 2, 3, 4} {
		rs.Add(flow.Candidate{Port: p, Adaptive: 0b1110})
	}
	masks := []uint8{0b0111, 0b1111, 0b0101, 0b1011, 0b0110}
	for _, c := range []struct {
		seed   int64
		first  string
		digest uint64
	}{
		{0, "022121320103201030112000200011002111003110032100", 15928690616958899806},
		{1, "232320101123031232312201213002102322120112002020", 9552532783792368766},
		{7, "222012001121032200310223203212010122021100212232", 9103912062764394256},
		{-3, "232320323220012112311001101211102121300100231202", 8435345925273760127},
		{7919 * 255, "010012301102201112121021200012012321120102012222", 823397427494344872},
	} {
		s := New(Random, c.seed)
		var first []byte
		var digest uint64
		for i := 0; i < 1400; i++ {
			mask := masks[i%len(masks)]
			got := s.Select(nil, rs, mask)
			if mask&(1<<got) == 0 {
				t.Fatalf("seed %d: choice #%d = %d is not in eligible set %04b", c.seed, i, got, mask)
			}
			if i < 48 {
				first = append(first, byte('0'+got))
			}
			digest = digest*31 + uint64(got)
		}
		if string(first) != c.first || digest != c.digest {
			t.Errorf("seed %d: first choices %s, digest %d; want %s, %d", c.seed, first, digest, c.first, c.digest)
		}
	}
}
