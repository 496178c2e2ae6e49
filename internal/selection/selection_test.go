package selection

import (
	"math/bits"
	"math/rand"
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

// pick is Select with the Random key at zero, for the policies that
// ignore it.
func pick(k Kind, v PortView, eligible uint8) int {
	return k.Select(v, twoCands(), eligible, 0, 0, 0)
}

func TestStaticXYPrefersFirst(t *testing.T) {
	if got := pick(StaticXY, nil, 0b11); got != 0 {
		t.Errorf("both eligible: got %d want 0", got)
	}
	if got := pick(StaticXY, nil, 0b10); got != 1 {
		t.Errorf("only Y eligible: got %d want 1", got)
	}
}

func TestMinMux(t *testing.T) {
	v := &fakeView{busy: map[topology.Port]int{1: 3, 3: 1}}
	if got := pick(MinMux, v, 0b11); got != 1 {
		t.Errorf("got %d want 1 (port 3 less multiplexed)", got)
	}
	// Tie prefers dimension order.
	v.busy[3] = 3
	if got := pick(MinMux, v, 0b11); got != 0 {
		t.Errorf("tie: got %d want 0", got)
	}
}

func TestLFU(t *testing.T) {
	v := &fakeView{use: map[topology.Port]uint64{1: 100, 3: 40}}
	if got := pick(LFU, v, 0b11); got != 1 {
		t.Errorf("got %d want 1 (port 3 less used)", got)
	}
	// Respect eligibility even when the other port scores better.
	if got := pick(LFU, v, 0b01); got != 0 {
		t.Errorf("got %d want 0 (only X eligible)", got)
	}
}

func TestLRU(t *testing.T) {
	v := &fakeView{last: map[topology.Port]int64{1: 900, 3: 100}}
	if got := pick(LRU, v, 0b11); got != 1 {
		t.Errorf("got %d want 1 (port 3 older)", got)
	}
	// A never-used port (LastUsed -1) wins over any used port.
	v2 := &fakeView{last: map[topology.Port]int64{1: 5}}
	if got := pick(LRU, v2, 0b11); got != 1 {
		t.Errorf("got %d want 1 (never used)", got)
	}
}

func TestMaxCredit(t *testing.T) {
	v := &fakeView{credits: map[topology.Port]int{1: 10, 3: 70}}
	if got := pick(MaxCredit, v, 0b11); got != 1 {
		t.Errorf("got %d want 1 (port 3 more credits)", got)
	}
	v.credits[3] = 10
	if got := pick(MaxCredit, v, 0b11); got != 0 {
		t.Errorf("tie: got %d want 0", got)
	}
}

// candidates returns a route set of n candidates on ports 1..n.
func candidates(n int) flow.RouteSet {
	var rs flow.RouteSet
	for p := 1; p <= n; p++ {
		rs.Add(flow.Candidate{Port: topology.Port(p), Adaptive: 0b1110})
	}
	return rs
}

// TestRandomReachesEveryEligible: over 2, 3 and 4 candidates and every
// eligible set, Random picks only eligible candidates and, over 3000
// messages, each of them within a fifth of its uniform share.
func TestRandomReachesEveryEligible(t *testing.T) {
	const msgs = 3000
	for n := 2; n <= flow.MaxCandidates; n++ {
		rs := candidates(n)
		for mask := uint8(1); mask < 1<<n; mask++ {
			var seen [flow.MaxCandidates]int
			for id := 0; id < msgs; id++ {
				got := Random.Select(nil, rs, mask, 5, topology.NodeID(id%7), flow.MessageID(id))
				if mask&(1<<got) == 0 {
					t.Fatalf("%d candidates, eligible %04b: message %d got %d", n, mask, id, got)
				}
				seen[got]++
			}
			share := msgs / bits.OnesCount8(mask)
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 && (seen[i] < share*4/5 || seen[i] > share*6/5) {
					t.Errorf("%d candidates, eligible %04b: index %d picked %d times of %d, want about %d", n, mask, i, seen[i], msgs, share)
				}
			}
		}
	}
}

// TestRandomIgnoresCallOrder: Random's pick for a (seed, router, message,
// eligible set) is the same whichever calls came before it. The calls are
// made once in order and twice more shuffled; under a generator per router
// the shuffles would hand each message another draw.
func TestRandomIgnoresCallOrder(t *testing.T) {
	type call struct {
		seed   int64
		router topology.NodeID
		msg    flow.MessageID
		mask   uint8
	}
	rs := candidates(4)
	var calls []call
	for _, seed := range []int64{1, 7, -3} {
		for r := topology.NodeID(0); r < 8; r++ {
			for m := flow.MessageID(0); m < 40; m++ {
				calls = append(calls, call{seed, r, m, []uint8{0b0011, 0b0111, 0b1111, 0b1010}[m%4]})
			}
		}
	}
	do := func(c call) int { return Random.Select(nil, rs, c.mask, c.seed, c.router, c.msg) }
	want := map[call]int{}
	for _, c := range calls {
		want[c] = do(c)
	}
	rng := rand.New(rand.NewSource(3))
	for pass := 0; pass < 2; pass++ {
		rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
		for _, c := range calls {
			if got := do(c); got != want[c] {
				t.Fatalf("shuffle %d: seed %d, router %d, message %d, eligible %04b picked %d, in order %d",
					pass, c.seed, c.router, c.msg, c.mask, got, want[c])
			}
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
	for _, k := range Kinds {
		// Port 1 scores best on every metric, but only candidate 1
		// (port 3) is eligible.
		for id := flow.MessageID(0); id < 8; id++ {
			if got := k.Select(v, twoCands(), 0b10, 1, 0, id); got != 1 {
				t.Errorf("%s ignored eligibility: got %d", k, got)
			}
		}
	}
}

func TestNotifyPrefersUncongestedQuadrant(t *testing.T) {
	for _, k := range []Kind{NotifyLRU, NotifyLFU, NotifyMaxCredit} {
		// Port 1 scores best on every local metric but its downstream
		// quadrant is congested; the filter must steer to port 3.
		v := &fakeView{
			busy:    map[topology.Port]int{1: 0, 3: 9},
			credits: map[topology.Port]int{1: 99, 3: 0},
			use:     map[topology.Port]uint64{1: 0, 3: 999},
			last:    map[topology.Port]int64{1: -1, 3: 999},
			cong:    map[topology.Port]uint8{1: 3, 3: 1},
		}
		if got := pick(k, v, 0b11); got != 1 {
			t.Errorf("%s: got %d want 1 (port 1 congested downstream)", k, got)
		}
		// Eligibility still dominates: a congested port must be chosen
		// when it is the only eligible one.
		if got := pick(k, v, 0b01); got != 0 {
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
		if got := pick(k, v, 0b11); got != 1 {
			t.Errorf("%s with no signal: got %d want 1 (inner heuristic)", k, got)
		}
	}
	v.cong = map[topology.Port]uint8{1: 2, 3: 2}
	for _, k := range []Kind{NotifyLRU, NotifyLFU, NotifyMaxCredit} {
		if got := pick(k, v, 0b11); got != 1 {
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

// TestRandomChoicesPinned pins Random's keyed draw as literal values, so
// that a change of draw, which moves every Random answer and so needs a
// core.SemanticsVersion bump, cannot pass unnoticed. It checks draw at four
// keys, then Random's picks among four candidates under five eligible sets
// for 8 routers x 175 messages under each of five seeds: the first 48 spelled
// out (router 0's messages 0..47), all 1400 folded into a digest.
func TestRandomChoicesPinned(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		router topology.NodeID
		msg    flow.MessageID
		want   uint64
	}{
		{0, 0, 0, 3746585686858627171},
		{1, 0, 0, 736442933886495122},
		{1, 5, 0, 4357350007319322657},
		{1, 5, -9, 10194743693212473783},
	} {
		if got := draw(c.seed, c.router, c.msg); got != c.want {
			t.Errorf("draw(%d, %d, %d) = %d, want %d", c.seed, c.router, c.msg, got, c.want)
		}
	}
	rs := candidates(4)
	masks := []uint8{0b0111, 0b1111, 0b0101, 0b1011, 0b0110}
	for _, c := range []struct {
		seed   int64
		first  string
		digest uint64
	}{
		{0, "100120220102031000312121203002132322321103231010", 13428429783927582755},
		{1, "230011000200201120012103113202130322123112211010", 3477987593872864669},
		{7, "032310223102032110310001203031032112301220231200", 6199409122113046771},
		{-3, "030020121110001132112203200012120311020122002112", 9117482041321027411},
		{1 << 40, "000020320220211030120301100031100010020121032110", 10221322967193647792},
	} {
		var first []byte
		var digest uint64
		for r := topology.NodeID(0); r < 8; r++ {
			for m := flow.MessageID(0); m < 175; m++ {
				mask := masks[int(m)%len(masks)]
				got := Random.Select(nil, rs, mask, c.seed, r, m)
				if mask&(1<<got) == 0 {
					t.Fatalf("seed %d, router %d, message %d: %d is not in eligible set %04b", c.seed, r, m, got, mask)
				}
				if r == 0 && m < 48 {
					first = append(first, byte('0'+got))
				}
				digest = digest*31 + uint64(got)
			}
		}
		if string(first) != c.first || digest != c.digest {
			t.Errorf("seed %d: first choices %s, digest %d; want %s, %d", c.seed, first, digest, c.first, c.digest)
		}
	}
}
