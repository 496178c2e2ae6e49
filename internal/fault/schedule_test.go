package fault

import (
	"strings"
	"testing"

	"lapses/internal/topology"
)

func TestScheduleEpochs(t *testing.T) {
	m := topology.NewMesh(4, 4)
	s, err := ParseSchedule(m, "1-2@100:300, r5@200, 8-9")
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries: 0, 100, 200, 300 -> four epochs.
	if got := s.Epochs(); got != 4 {
		t.Fatalf("epochs = %d, want 4 (times %v)", got, s.Times())
	}
	type probe struct {
		at       int64
		linkDead bool
		r5Dead   bool
	}
	for _, pr := range []probe{
		{0, false, false}, {99, false, false},
		{100, true, false}, {199, true, false},
		{200, true, true}, {299, true, true},
		{300, false, true}, {100000, false, true},
	} {
		// The epoch holding pr.at is the last one starting at or before it.
		times := s.Times()
		e := 0
		for e+1 < len(times) && times[e+1] <= pr.at {
			e++
		}
		p := s.Plan(e)
		if got := p.LinkDead(1, topology.PortPlus(0)); got != pr.linkDead {
			t.Errorf("at %d: link 1-2 dead = %v, want %v", pr.at, got, pr.linkDead)
		}
		if got := p.NodeDead(5); got != pr.r5Dead {
			t.Errorf("at %d: r5 dead = %v, want %v", pr.at, got, pr.r5Dead)
		}
		// The untimed item is down from cycle 0 forever.
		if !p.LinkDead(8, topology.PortPlus(0)) {
			t.Errorf("at %d: link 8-9 should be dead in every epoch", pr.at)
		}
	}
	if fd, ld := s.FirstDown(), s.LastDown(); fd != 100 || ld != 200 {
		t.Fatalf("FirstDown/LastDown = %d/%d, want 100/200", fd, ld)
	}
}

func TestScheduleKeyCanonical(t *testing.T) {
	m := topology.NewMesh(4, 4)
	a, err := ParseSchedule(m, "r5@200,1-2@100:300")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSchedule(m, "2-1@100:300 , r5@200")
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("key not canonical: %q vs %q", a.Key(), b.Key())
	}
	if want := "1-2@100:300;r5@200"; a.Key() != want {
		t.Fatalf("key = %q, want %q", a.Key(), want)
	}
}

func TestScheduleStaticMatchesPlan(t *testing.T) {
	m := topology.NewMesh(4, 4)
	s, err := ParseSchedule(m, "r5,1-2,5-6")
	if err != nil {
		t.Fatal(err)
	}
	if s.Epochs() != 1 {
		t.Fatal("untimed schedule should have one epoch")
	}
	p, err := New(m, []Link{{Node: 1, Port: topology.PortPlus(0)}}, []topology.NodeID{5})
	if err != nil {
		t.Fatal(err)
	}
	// A static schedule keys as its plan, however it was built; the link
	// 5-6 dies with r5.
	if s.Plan(0).Key() != p.Key() || s.Key() != p.Key() || Static(p).Key() != p.Key() {
		t.Fatalf("static keys %q / %q / %q, want the plan key %q", s.Plan(0).Key(), s.Key(), Static(p).Key(), p.Key())
	}
	if st := Static(p); st.Epochs() != 1 || st.Plan(0) != p || !st.FailsRouters() || !st.Fits(m) {
		t.Fatal("Static(p) is not p's one-epoch schedule")
	}
	if s.FirstDown() != -1 || s.LastDown() != -1 {
		t.Fatal("static schedule should have no down transitions")
	}
	healthy, err := New(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var none *Schedule
	if Static(healthy) != nil || Static(nil) != nil {
		t.Fatal("Static of a healthy plan must be nil")
	}
	if !none.Empty() || none.Epochs() != 1 || none.Plan(0) != nil || none.Key() != "" || none.FailsRouters() {
		t.Fatal("nil schedule must behave as one healthy epoch")
	}
}

func TestScheduleRejectsDisconnection(t *testing.T) {
	m := topology.NewMesh(2, 2)
	// Cutting both links of node 0 isolates it during [10, 20).
	_, err := ParseSchedule(m, "0-1@10:20,0-2@10:30")
	if err == nil || !strings.Contains(err.Error(), "disconnect") {
		t.Fatalf("disconnecting schedule accepted (err=%v)", err)
	}
	// Staggered so one link is always live: fine.
	if _, err := ParseSchedule(m, "0-1@10:20,0-2@20:30"); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleBadSpecs(t *testing.T) {
	m := topology.NewMesh(4, 4)
	for _, spec := range []string{
		"1-2@", "1-2@x", "1-2@5:4", "1-2@5:5", "1-2@-3",
		"r99@5", "1-9@5", "bogus",
	} {
		if _, err := ParseSchedule(m, spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestRandomScheduleConnectedEveryEpoch(t *testing.T) {
	m := topology.NewTorus(5, 5)
	for seed := int64(0); seed < 10; seed++ {
		s, err := RandomSchedule(m, 5, 1, 8000, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < s.Epochs(); i++ {
			if !s.Plan(i).Connected(m) {
				t.Fatalf("seed %d: epoch %d disconnected", seed, i)
			}
		}
		s2, err := RandomSchedule(m, 5, 1, 8000, seed)
		if err != nil || s2.Key() != s.Key() {
			t.Fatalf("seed %d: not reproducible: %q vs %q (%v)", seed, s.Key(), s2.Key(), err)
		}
	}
}
