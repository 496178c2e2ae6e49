package router

import (
	"math/rand"
	"testing"
	"unsafe"

	"lapses/internal/flow"
)

// TestFifoRunsAgainstFlitModel drives the run-length fifo and a plain
// []flow.Flit reference with the same seeded random scripts — pushes of
// 1-, 5- and 20-flit messages (whole worms, and worms whose front already
// left), pops, peeks, full walks and victim purges — and requires the two
// to agree flit for flit after every step. Depth 20 over a two-run seed
// ring forces both growth and wraparound.
func TestFifoRunsAgainstFlitModel(t *testing.T) {
	const depth = 20
	lengths := []int{1, 5, 20}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var f fifo
		f.init(make([]run, 2), depth)
		var model []flow.Flit
		// feed is the stream of flits still to arrive, in wire order: one
		// message after another, the first possibly from its middle.
		var feed []flow.Flit
		refill := func() {
			msg := &flow.Message{ID: flow.MessageID(rng.Int63()), Length: lengths[rng.Intn(len(lengths))]}
			for s := rng.Intn(msg.Length); s < msg.Length; s++ {
				feed = append(feed, flow.FlitAt(msg, s))
			}
		}
		grew, wrapped := false, false
		check := func(step int, op string) {
			t.Helper()
			if f.len() != len(model) || f.empty() != (len(model) == 0) || f.full() != (len(model) == depth) || f.space() != depth-len(model) {
				t.Fatalf("seed %d step %d after %s: fifo holds %d flits, model %d", seed, step, op, f.len(), len(model))
			}
			i := 0
			f.each(func(fl flow.Flit) {
				if i >= len(model) || fl != model[i] {
					t.Fatalf("seed %d step %d after %s: flit %d is %+v, model disagrees", seed, step, op, i, fl)
				}
				i++
			})
			if i != len(model) {
				t.Fatalf("seed %d step %d after %s: each visited %d of %d flits", seed, step, op, i, len(model))
			}
			if len(model) > 0 {
				if got := f.peek(); got != model[0] {
					t.Fatalf("seed %d step %d after %s: peek %+v want %+v", seed, step, op, got, model[0])
				}
			}
			grew = grew || len(f.runs) > 2
			wrapped = wrapped || int(f.head+f.nr) > len(f.runs)
		}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 50:
				if len(model) == depth {
					continue
				}
				if len(feed) == 0 {
					refill()
				}
				f.push(feed[0])
				model = append(model, feed[0])
				feed = feed[1:]
				check(step, "push")
			case r < 95:
				if len(model) == 0 {
					continue
				}
				if got := f.pop(); got != model[0] {
					t.Fatalf("seed %d step %d: pop %+v want %+v", seed, step, got, model[0])
				}
				model = model[1:]
				check(step, "pop")
			default:
				if len(model) == 0 {
					continue
				}
				// Purge one buffered message, as a fault transition does:
				// every flit of it here, and what the wire still held.
				doomed := model[rng.Intn(len(model))].Msg
				victim := func(m *flow.Message) bool { return m == doomed }
				kept := model[:0:0]
				for _, fl := range model {
					if !victim(fl.Msg) {
						kept = append(kept, fl)
					}
				}
				if got, want := f.removeIf(victim), len(model)-len(kept); got != want {
					t.Fatalf("seed %d step %d: removeIf dropped %d flits, model %d", seed, step, got, want)
				}
				model = kept
				for len(feed) > 0 && feed[0].Msg == doomed {
					feed = feed[1:]
				}
				check(step, "removeIf")
			}
		}
		if !grew || !wrapped {
			t.Errorf("seed %d: script never grew (%v) or wrapped (%v) the ring", seed, grew, wrapped)
		}
	}
}

// Run-length storage rests on a flit being FlitAt(msg, seq). Both buffers
// check it on the way in, and the output box also holds one message at a
// time.
func TestBuffersRejectInconsistentFlits(t *testing.T) {
	msg := &flow.Message{Length: 5}
	other := &flow.Message{Length: 5}
	bad := map[string]flow.Flit{
		"body typed as head":    {Msg: msg, Seq: 2, Type: flow.Head},
		"head typed as body":    {Msg: msg, Seq: 0, Type: flow.Body},
		"seq beyond the tail":   {Msg: msg, Seq: 5, Type: flow.Tail},
		"negative seq":          {Msg: msg, Seq: -1, Type: flow.Head},
		"continuation mistyped": {Msg: msg, Seq: 1, Type: flow.Tail},
	}
	for name, fl := range bad {
		for _, box := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (box=%v): push accepted %+v", name, box, fl)
					}
				}()
				if box {
					var f outFifo
					f.init(4)
					f.push(flow.FlitAt(msg, 0))
					f.push(fl)
				} else {
					var f fifo
					f.init(make([]run, 2), 8)
					f.push(flow.FlitAt(msg, 0))
					f.push(fl)
				}
			}()
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("output box accepted a second message")
		}
	}()
	var f outFifo
	f.init(4)
	f.push(flow.FlitAt(msg, 0))
	f.push(flow.FlitAt(other, 0))
}

// TestFootprintBudget pins the size of the per-router records. They are
// multiplied by ports x VCs x nodes (a 32x32 network has 20 480 of each VC
// record), so a field added per flit, per VC or per port shows up here
// and has to be argued for by raising a ceiling.
//
// Router was raised once, 304 -> 360, for the standing request state (the
// xbReq window, xbPorts, fresh + freshAt, hasCredit, freeOut; actXB went).
// It is one record per node and it bought 8 bytes back from each of the
// node's VC records — the per-buffer lastPush stamps the scans read — so
// the last check held a whole 2-D router to the 4 864 bytes it took
// before the trade (it was 4 640). inputVC then dropped its copy of the
// header's dateline (always equal to msg.Dateline until SA, which reads
// the message anyway): 104 -> 96, and the 2-D router was pinned at the
// 4 480 bytes that left. inputVC then dropped its copy of the header's
// candidates (SA reads msg.Route), portState its busy-VC count (a popcount
// of freeOut) and Router PROUD's lookup-stage mask: 96 -> 72, 48 -> 40 and
// 352 -> 344, and the ceilings are the sizes that leaves, 3 944 bytes a
// 2-D router.
func TestFootprintBudget(t *testing.T) {
	const ports, vcs, seedRuns = 5, 4, 2
	router2D := unsafe.Sizeof(Router{}) +
		ports*vcs*(unsafe.Sizeof(inputVC{})+unsafe.Sizeof(outputVC{})+seedRuns*unsafe.Sizeof(run{})) +
		ports*(unsafe.Sizeof(portState{})+unsafe.Sizeof(uint64(0)))
	for _, c := range []struct {
		name          string
		size, ceiling uintptr
	}{
		{"Router", unsafe.Sizeof(Router{}), 344},
		{"inputVC", unsafe.Sizeof(inputVC{}), 72},
		{"outputVC", unsafe.Sizeof(outputVC{}), 48},
		{"portState", unsafe.Sizeof(portState{}), 40}, // must stay within one 64-byte line
		{"run", unsafe.Sizeof(run{}), 24},
		{"2-D router with its slabs", router2D, 3944},
	} {
		if c.size > c.ceiling {
			t.Errorf("%s is %d bytes, ceiling %d", c.name, c.size, c.ceiling)
		}
	}
}
