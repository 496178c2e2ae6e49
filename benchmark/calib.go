package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The reference box is a 2-vCPU VM on a shared host, and how fast it
// runs the simulator drifts by a third over tens of seconds as its
// neighbours come and go: ten runs of one workload spread their median
// round time by 30%, which no bound of 25% could tell from a regression.
// The drift is in the shared cache and execution units, so a fixed piece
// of work that leans on both slows down with it: over a few seconds the
// two track each other to about 5%. The benchmark therefore runs that
// fixed work — the calibration kernel below, which no change to the
// program can touch — around everything it times, every half second
// where it can, and reports times in calibrated seconds: measured seconds
// divided by how much slower than calibrationRef the kernel ran around
// them. On recorded traces that takes the spread of a run's median from
// 12% to 2-3% when the kernel is sampled that densely, and to 4-7% with
// one sample at either end of a one-second job.

// calibrationRef is the kernel's time on the reference box when nothing
// else is running there. It only fixes the scale of calibrated seconds.
const calibrationRef = 0.0225

// calibrator holds the kernel's memory: a random cycle through 2 MB,
// which fits the reference box's L2 and is evicted by a busy neighbour.
type calibrator struct {
	next  []uint32
	loads int // dependent loads per pass
	width int // copies of the kernel a pass runs at once
}

var calibrationSink atomic.Uint64 // keeps the kernel's loops from being optimised away

// newCalibrator builds the kernel. A sample runs as many copies of it at
// once as the workload keeps simulations in flight, so that a box that
// has one processor to spare but not two reads as slow to a two-worker
// grid and not to a serial kernel. At test scale a sample is a twentieth
// of the work (and calibrated seconds mean nothing).
func newCalibrator(z sizing, width int) *calibrator {
	const n = 1 << 19
	loads := 500_000
	if z.small {
		loads /= 20
	}
	perm := rand.New(rand.NewSource(1)).Perm(n)
	next := make([]uint32, n)
	for i := range perm {
		next[perm[i]] = uint32(perm[(i+1)%n])
	}
	return &calibrator{next: next, loads: loads, width: width}
}

// sample runs the kernel twice and returns the faster pass: a burst from
// a neighbour, or a garbage collection left over from the round before,
// that hits one pass says nothing about the seconds being calibrated.
func (c *calibrator) sample() float64 { return min(c.pass(), c.pass()) }

// pass runs width copies of the kernel at once and returns their mean
// seconds.
func (c *calibrator) pass() float64 {
	secs := make([]float64, c.width)
	var wg sync.WaitGroup
	for w := range secs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			secs[w] = c.kernel(uint32(w))
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, s := range secs {
		sum += s
	}
	return sum / float64(c.width)
}

// kernel is half a million dependent loads around the cycle (cache
// latency), then ten million rounds of four independent integer chains
// (issue width), timed.
func (c *calibrator) kernel(i uint32) float64 {
	t := time.Now()
	for s := 0; s < c.loads; s++ {
		i = c.next[i]
	}
	a, b, x, d := uint64(1), uint64(2), uint64(3), uint64(i)
	for s := 0; s < 20*c.loads; s++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		x ^= x << 13
		x ^= x >> 7
		d += a ^ b
	}
	calibrationSink.Add(a + b + x + d)
	return time.Since(t).Seconds()
}

// slowdown is how much slower than the reference the calibration kernel
// ran on either side of a measurement.
func slowdown(before, after float64) float64 { return (before + after) / 2 / calibrationRef }

// segmentS is how much timed work a meter lets pass between two samples
// of the calibration kernel.
const segmentS = 0.5

// meter times the operations of a round, in measured and in calibrated
// seconds. The calibration kernel runs between operations, never inside
// one, and its own time is not counted. One meter serves the successive
// rounds of a run: the sample that closes a round opens the next.
type meter struct {
	cal             *calibrator
	prev            float64 // the sample that opened the current segment
	segWall, segCPU float64
	wall, cpu       float64
	calWall, calCPU float64
}

func newMeter(cal *calibrator) *meter { return &meter{cal: cal, prev: cal.sample()} }

// time runs one operation (a core.Run call, a whole grid job) and closes
// the segment once enough work has passed since the last sample.
func (m *meter) time(f func()) {
	c0, t0 := cpuSeconds(), time.Now()
	f()
	m.segWall += time.Since(t0).Seconds()
	m.segCPU += cpuSeconds() - c0
	if m.segWall >= segmentS {
		m.cut()
	}
}

func (m *meter) cut() {
	if m.segWall == 0 {
		return
	}
	s := m.cal.sample()
	k := slowdown(m.prev, s)
	m.wall, m.cpu = m.wall+m.segWall, m.cpu+m.segCPU
	m.calWall, m.calCPU = m.calWall+m.segWall/k, m.calCPU+m.segCPU/k
	m.prev, m.segWall, m.segCPU = s, 0, 0
}

// finish closes the last segment, writes the round's times and starts
// over for the next round.
func (m *meter) finish(rr *roundResult) {
	m.cut()
	rr.WallS, rr.CPUS, rr.CalWallS, rr.CalCPUS = m.wall, m.cpu, m.calWall, m.calCPU
	m.wall, m.cpu, m.calWall, m.calCPU = 0, 0, 0, 0
}
