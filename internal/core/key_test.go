package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lapses/internal/fault"
	"lapses/internal/selection"
	"lapses/internal/stats"
	"lapses/internal/table"
	"lapses/internal/traffic"
)

// fmtKey is Config.Key as it was written with fmt, kept as the reference
// the strconv form must equal byte for byte: stored entries are addressed
// by these bytes.
func fmtKey(c Config) string {
	var b strings.Builder
	b.Grow(96)
	trace := "0x0"
	if c.Trace != nil {
		trace = c.Trace.Digest()
	}
	fmt.Fprintf(&b, "d%v", c.Dims)
	fmt.Fprintf(&b, ",t%t,v%d,e%d,b%d,o%d,l%d,la%t,ctfalse,a%d,tb%d,s%d,p%d",
		c.Torus, c.VCs, c.EscapeVCs, c.BufDepth, c.OutDepth, c.LinkDelay,
		c.LookAhead, int(c.Algorithm), int(c.Table), int(c.Selection), int(c.Pattern))
	fmt.Fprintf(&b, ",ld%x,ml%d,tr%s,w%d,m%d,mc%d,sl%x,sd%d",
		math.Float64bits(c.Load), c.MsgLen, trace,
		c.Warmup, c.Measure, c.MaxCycles, math.Float64bits(c.SatLatency), c.Seed)
	if c.EventMode {
		b.WriteString(",ev")
	}
	if c.AutoTol != 0 {
		a := stats.AdaptiveConfig{RelTol: c.AutoTol, MaxSamples: c.Warmup + c.Measure}.Normalize()
		fmt.Fprintf(&b, ",au[%x,%d,%d,%d]",
			math.Float64bits(a.RelTol), a.MinSamples, a.MaxSamples, a.CheckEvery)
	}
	if c.Burst != nil {
		fmt.Fprintf(&b, ",mm[%x,%x]", math.Float64bits(c.Burst.OnFrac), math.Float64bits(c.Burst.MeanOn))
	}
	if c.QoS != nil {
		fmt.Fprintf(&b, ",q[%x,%d]", math.Float64bits(c.QoS.HiFrac), c.QoS.HiVCs)
	}
	if !c.Faults.Empty() {
		term := ",f[%s]"
		if c.Faults.Epochs() > 1 {
			term = ",fs[%s]"
		}
		fmt.Fprintf(&b, term, c.Faults.Key())
	}
	if c.Reliability != nil {
		fmt.Fprintf(&b, ",rel[%d,%d,%d]", c.Reliability.RTO, c.Reliability.MaxAttempts, c.Reliability.AckDelay)
	}
	return b.String()
}

// TestKeyMatchesFmt holds Key to fmtKey on random configs that set every
// term: signed integers of every size (a negative Seed, MaxCycles 0),
// floats of every bit pattern (a non-integral Load and SatLatency), zero
// to three Dims, and each optional term present or absent.
func TestKeyMatchesFmt(t *testing.T) {
	t.Parallel()
	m := Config{Dims: []int{8, 8}}.Mesh()
	untimed, err := fault.ParseSchedule(m, "35-43,r9,27-28")
	if err != nil {
		t.Fatal(err)
	}
	timed, err := fault.ParseSchedule(m, "27-28@1100:1800,r9@1200")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.NewTrace([]traffic.TraceMsg{{At: 0, Src: 1, Dst: 2, Length: 20}, {At: 5, Src: 3, Dst: 0, Length: 4}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Integers: small, negative, zero and full-width, as a fuzzed config
	// would hold them.
	num := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return int64(rng.Intn(100))
		case 2:
			return -int64(rng.Intn(100))
		}
		return int64(rng.Uint64())
	}
	bits := func() float64 { return math.Float64frombits(rng.Uint64()) }
	some := func() bool { return rng.Intn(2) == 0 }
	for n := 0; n < 5000; n++ {
		c := Config{
			Torus: some(), VCs: int(num()), EscapeVCs: int(num()), BufDepth: int(num()),
			OutDepth: int(num()), LinkDelay: int(num()), LookAhead: some(),
			Algorithm: Alg(num()), Table: table.Kind(num()), Selection: selection.Kind(num()),
			Pattern: traffic.Kind(num()),
			Load:    bits(), MsgLen: int(num()), Warmup: int(num()), Measure: int(num()),
			MaxCycles: num(), SatLatency: bits(), Seed: num(), EventMode: some(),
		}
		for i := rng.Intn(4); i > 0; i-- {
			c.Dims = append(c.Dims, int(num()))
		}
		if n == 0 {
			c.Load, c.SatLatency, c.Seed, c.MaxCycles = 0.3, 5000.5, -7, 0
		}
		if some() {
			c.Trace = tr
		}
		if some() {
			c.AutoTol = bits()
		}
		if some() {
			c.Burst = &traffic.Burst{OnFrac: bits(), MeanOn: bits()}
		}
		if some() {
			c.QoS = &QoSSpec{HiFrac: bits(), HiVCs: int(num())}
		}
		switch rng.Intn(3) {
		case 1:
			c.Faults = untimed
		case 2:
			c.Faults = timed
		}
		if some() {
			c.Reliability = &Reliability{RTO: num(), MaxAttempts: int(num()), AckDelay: num()}
		}
		if got, want := c.Key(), fmtKey(c); got != want {
			t.Fatalf("config %d: key\n got %s\nwant %s", n, got, want)
		}
	}
}
