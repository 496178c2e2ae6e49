package traffic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sort"

	"lapses/internal/topology"
)

// TraceMsg is one message of a trace-driven workload: inject a message of
// Length flits from Src to Dst at cycle At (or as soon after as the source
// queue drains). Traces model application workloads — the evaluation the
// paper's conclusion lists as future work — such as bulk-synchronous
// exchanges or collected communication logs.
type TraceMsg struct {
	At     int64
	Src    topology.NodeID
	Dst    topology.NodeID
	Length int
}

// Trace is a time-sorted message list.
type Trace struct {
	byNode map[topology.NodeID][]TraceMsg
	total  int
	digest string
}

// NewTrace builds a trace from events; they need not be sorted. Messages
// with Src == Dst or non-positive length are rejected.
func NewTrace(msgs []TraceMsg) (*Trace, error) {
	t := &Trace{byNode: make(map[topology.NodeID][]TraceMsg)}
	for i, m := range msgs {
		if m.Src == m.Dst {
			return nil, fmt.Errorf("traffic: trace[%d] has src == dst (%d)", i, m.Src)
		}
		if m.Length < 1 {
			return nil, fmt.Errorf("traffic: trace[%d] has length %d", i, m.Length)
		}
		if m.At < 0 {
			return nil, fmt.Errorf("traffic: trace[%d] has negative time", i)
		}
		t.byNode[m.Src] = append(t.byNode[m.Src], m)
		t.total++
	}
	h := sha256.New()
	for _, n := range slices.Sorted(maps.Keys(t.byNode)) {
		q := t.byNode[n]
		sort.SliceStable(q, func(i, j int) bool { return q[i].At < q[j].At })
		for _, m := range q {
			binary.Write(h, binary.LittleEndian, []int64{m.At, int64(m.Src), int64(m.Dst), int64(m.Length)})
		}
	}
	t.digest = hex.EncodeToString(h.Sum(nil))
	return t, nil
}

// Digest identifies the trace by content: the SHA-256, in hex, of each
// node's messages in the order it injects them — everything a simulation
// reads of the trace — computed once by NewTrace. Traces built from the same
// messages share a digest however the input interleaved the nodes.
func (t *Trace) Digest() string { return t.digest }

// Total returns the number of messages in the trace.
func (t *Trace) Total() int { return t.total }

// Cursor returns a per-node consumer of the trace, used by one NI.
func (t *Trace) Cursor(node topology.NodeID) *TraceCursor {
	return &TraceCursor{queue: t.byNode[node]}
}

// TraceCursor walks one node's share of a trace in time order.
type TraceCursor struct {
	queue []TraceMsg
	next  int
}

// Due returns the messages whose injection time has arrived, advancing the
// cursor.
func (c *TraceCursor) Due(now int64) []TraceMsg {
	start := c.next
	for c.next < len(c.queue) && c.queue[c.next].At <= now {
		c.next++
	}
	return c.queue[start:c.next]
}

// NextAt returns the injection cycle of the next unreleased message, or
// false when the cursor is exhausted. Like Injector.NextAt, it lets an
// idle consumer sleep until the next message is due instead of polling
// Due every cycle.
func (c *TraceCursor) NextAt() (int64, bool) {
	if c.next >= len(c.queue) {
		return 0, false
	}
	return c.queue[c.next].At, true
}

// Remaining returns how many messages the cursor has not yet released.
func (c *TraceCursor) Remaining() int { return len(c.queue) - c.next }

// StencilTrace synthesizes a bulk-synchronous stencil exchange: every
// iteration, every node sends one message of msgLen flits to each of its
// mesh neighbors, with iterations period cycles apart. This is the
// communication skeleton of iterative PDE solvers, a canonical "fine grain
// parallel application" workload from the paper's introduction.
func StencilTrace(m *topology.Mesh, iterations int, period int64, msgLen int) *Trace {
	var msgs []TraceMsg
	for it := 0; it < iterations; it++ {
		at := int64(it) * period
		for id := topology.NodeID(0); int(id) < m.N(); id++ {
			for p := topology.Port(1); int(p) < m.NumPorts(); p++ {
				nb, ok := m.Neighbor(id, p)
				if !ok {
					continue
				}
				msgs = append(msgs, TraceMsg{At: at, Src: id, Dst: nb, Length: msgLen})
			}
		}
	}
	t, err := NewTrace(msgs)
	if err != nil {
		panic(err) // synthesized trace is always valid
	}
	return t
}
