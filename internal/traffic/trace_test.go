package traffic

import (
	"testing"

	"lapses/internal/topology"
)

func TestNewTraceValidates(t *testing.T) {
	if _, err := NewTrace([]TraceMsg{{At: 0, Src: 1, Dst: 1, Length: 5}}); err == nil {
		t.Error("src==dst accepted")
	}
	if _, err := NewTrace([]TraceMsg{{At: 0, Src: 1, Dst: 2, Length: 0}}); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := NewTrace([]TraceMsg{{At: -1, Src: 1, Dst: 2, Length: 5}}); err == nil {
		t.Error("negative time accepted")
	}
}

func TestTraceCursorOrdering(t *testing.T) {
	tr, err := NewTrace([]TraceMsg{
		{At: 30, Src: 1, Dst: 2, Length: 5},
		{At: 10, Src: 1, Dst: 3, Length: 5},
		{At: 20, Src: 2, Dst: 3, Length: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Total() != 3 {
		t.Fatalf("total = %d", tr.Total())
	}
	c := tr.Cursor(1)
	if due := c.Due(5); len(due) != 0 {
		t.Fatalf("early due = %v", due)
	}
	due := c.Due(10)
	if len(due) != 1 || due[0].Dst != 3 {
		t.Fatalf("due@10 = %v", due)
	}
	due = c.Due(100)
	if len(due) != 1 || due[0].Dst != 2 {
		t.Fatalf("due@100 = %v", due)
	}
	if c.Remaining() != 0 {
		t.Fatalf("remaining = %d", c.Remaining())
	}
	// Nodes without events yield an empty cursor.
	if tr.Cursor(9).Remaining() != 0 {
		t.Error("empty cursor should have nothing")
	}
}

func TestStencilTrace(t *testing.T) {
	m := topology.NewMesh(4, 4)
	tr := StencilTrace(m, 3, 100, 8)
	// Directed neighbor pairs in a 4x4 mesh: 2*2*4*3 = 48 per iteration.
	if tr.Total() != 3*48 {
		t.Fatalf("total = %d want %d", tr.Total(), 3*48)
	}
	// A corner node has 2 neighbors: 2 messages per iteration.
	c := tr.Cursor(0)
	if got := len(c.Due(0)); got != 2 {
		t.Fatalf("corner due@0 = %d want 2", got)
	}
	if got := len(c.Due(100)); got != 2 {
		t.Fatalf("corner due@100 = %d want 2", got)
	}
	// An interior node has 4.
	ci := tr.Cursor(m.ID(topology.Coord{1, 1}))
	if got := len(ci.Due(0)); got != 4 {
		t.Fatalf("interior due@0 = %d want 4", got)
	}
}
