package core_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/selection"
	"lapses/internal/table"
	"lapses/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures from the current kernel")

// goldenGrid pins the configurations the kernel-determinism golden covers:
// 2 patterns x 3 loads x both pipelines x 2 seeds on an 8x8 mesh. The
// fixture was generated from the pre-active-set kernel; any cycle-kernel
// optimization must reproduce these Results bit for bit.
func goldenGrid() []core.Config {
	var grid []core.Config
	for _, pat := range []traffic.Kind{traffic.Uniform, traffic.Transpose} {
		for _, load := range []float64{0.05, 0.2, 0.4} {
			for _, la := range []bool{false, true} {
				for _, seed := range []int64{1, 2} {
					c := core.DefaultConfig()
					c.Dims = []int{8, 8}
					c.Selection = selection.LRU
					c.Pattern = pat
					c.Load = load
					c.LookAhead = la
					c.Seed = seed
					c.Warmup, c.Measure = 100, 1000
					grid = append(grid, c)
				}
			}
		}
	}
	return grid
}

// goldenKey names a goldenGrid point in the fixtures.
func goldenKey(c core.Config) string {
	return fmt.Sprintf("%s/load=%.2f/la=%t/seed=%d", c.Pattern, c.Load, c.LookAhead, c.Seed)
}

// fingerprint renders a Result with float fields as raw IEEE-754 bit
// patterns, so comparison is exact rather than print-precision deep.
func fingerprint(r core.Result) string {
	b := math.Float64bits
	return fmt.Sprintf("lat=%016x net=%016x ci=%016x p50=%016x p95=%016x p99=%016x hops=%016x thr=%016x del=%d cyc=%d sat=%t reason=%q",
		b(r.AvgLatency), b(r.NetLatency), b(r.CI95), b(r.P50), b(r.P95), b(r.P99),
		b(r.AvgHops), b(r.Throughput), r.Delivered, r.Cycles, r.Saturated, r.SatReason)
}

// TestGoldenKernel locks the simulation kernel's observable behavior: every
// grid point must produce a Result identical, to the bit, to the fixture
// recorded before the active-set scheduler landed. Regenerate (only when
// a semantic change is intended) with: go test ./internal/core -run
// TestGoldenKernel -update
func TestGoldenKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is 24 full runs; skipped under -short")
	}
	grid := goldenGrid()
	got := make(map[string]string, len(grid))
	for _, c := range grid {
		key := goldenKey(c)
		r, err := core.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = fingerprint(r)
	}
	compareGolden(t, "golden_kernel.txt", "TestGoldenKernel", got)
}

// goldenFaultGrid pins the degraded-kernel behavior: an 8x8 mesh under
// two fault plans (a seeded random plan and an explicit links+router
// plan), 2 loads x both pipelines. Fault-path changes — routing detours,
// fault-aware lookups, the escape-commit discipline, dead wiring — must
// reproduce these Results bit for bit or regenerate deliberately.
func goldenFaultGrid(t *testing.T) (cfgs []core.Config, keys []string) {
	t.Helper()
	base := core.DefaultConfig()
	base.Dims = []int{8, 8}
	base.Selection = selection.LRU
	base.Warmup, base.Measure = 100, 1000
	m := base.Mesh()
	random, err := fault.Random(m, 4, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := fault.ParseSchedule(m, "27-28,35-43,r9")
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		s    *fault.Schedule
	}{{"random4", fault.Static(random)}, {"explicit", explicit}}
	for _, pl := range plans {
		for _, load := range []float64{0.1, 0.25} {
			for _, la := range []bool{false, true} {
				c := base
				c.Faults = pl.s
				c.Load = load
				c.LookAhead = la
				cfgs = append(cfgs, c)
				keys = append(keys, fmt.Sprintf("%s/load=%.2f/la=%t", pl.name, load, la))
			}
		}
	}
	return cfgs, keys
}

// TestGoldenFaults locks the degraded kernel the way TestGoldenKernel
// locks the healthy one. Regenerate (only when a semantic change is
// intended) with: go test ./internal/core -run TestGoldenFaults -update
func TestGoldenFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden fault grid is 8 full runs; skipped under -short")
	}
	cfgs, keys := goldenFaultGrid(t)
	got := make(map[string]string, len(cfgs))
	for i, c := range cfgs {
		r, err := core.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", keys[i], err)
		}
		got[keys[i]] = fingerprint(r)
	}
	compareGolden(t, "golden_faults.txt", "TestGoldenFaults", got)
}

// goldenScheduleGrid pins the transient-fault kernel: an 8x8 mesh under a
// timed link storm and a timed router storm (failures and repairs landing
// mid-measurement), 2 loads x both pipelines x both kernels x the
// reliability layer off and on. Transition semantics — the purge, the
// drain discipline, table swaps, rerouting, credit recomputation, the NI
// retransmission timers — must reproduce these Results bit for bit or
// regenerate deliberately.
func goldenScheduleGrid(t *testing.T) (cfgs []core.Config, keys []string) {
	t.Helper()
	base := core.DefaultConfig()
	base.Dims = []int{8, 8}
	base.Selection = selection.LRU
	base.Warmup, base.Measure = 100, 1000
	m := base.Mesh()
	storms := []struct{ name, spec string }{
		{"links", "27-28@1100:1800,35-43@1300,20-21@1400:2000"},
		{"routers", "r9@1200:1900,r45@1500"},
	}
	for _, st := range storms {
		sched, err := fault.ParseSchedule(m, st.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, load := range []float64{0.1, 0.25} {
			for _, la := range []bool{false, true} {
				for _, events := range []bool{false, true} {
					for _, rel := range []bool{false, true} {
						c := base
						c.Faults = sched
						c.Load = load
						c.LookAhead = la
						c.EventMode = events
						if rel {
							c.Reliability = &core.Reliability{RTO: 400, MaxAttempts: 8}
						}
						cfgs = append(cfgs, c)
						keys = append(keys, fmt.Sprintf("%s/load=%.2f/la=%t/ev=%t/rel=%t", st.name, load, la, events, rel))
					}
				}
			}
		}
	}
	return cfgs, keys
}

// scheduleFingerprint is fingerprint plus what a schedule run adds: the
// fast-forwarded cycles and every schedule and reliability counter.
func scheduleFingerprint(r core.Result) string {
	return fmt.Sprintf("%s skip=%d dflit=%d dmsg=%d epochs=%d frac=%016x rec=%d retx=%d dup=%d abandon=%d",
		fingerprint(r), r.SkippedCycles, r.DroppedFlits, r.DroppedMessages, r.ReconvergenceEpochs,
		math.Float64bits(r.DeliveredFraction), r.RecoveryCycles, r.Retransmits, r.DupSuppressed, r.Abandoned)
}

// TestGoldenSchedule locks the transient-fault kernel the way
// TestGoldenFaults locks the static one. Regenerate (only when a semantic
// change is intended) with: go test ./internal/core -run TestGoldenSchedule
// -update
func TestGoldenSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("golden schedule grid is 32 full runs; skipped under -short")
	}
	cfgs, keys := goldenScheduleGrid(t)
	got := make(map[string]string, len(cfgs))
	for i, c := range cfgs {
		r, err := core.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", keys[i], err)
		}
		got[keys[i]] = scheduleFingerprint(r)
	}
	compareGolden(t, "golden_schedule.txt", "TestGoldenSchedule", got)
}

// goldenEventGrid is goldenGrid on the event kernel plus one point each
// for the topology and pipeline/table corners the express path treats
// specially: an 8x8 torus (datelines) and PROUD/XY/full-table.
func goldenEventGrid() (cfgs []core.Config, keys []string) {
	for _, c := range goldenGrid() {
		c.EventMode = true
		cfgs = append(cfgs, c)
		keys = append(keys, goldenKey(c))
	}
	base := cfgs[0] // uniform, PROUD, seed 1
	base.Load = 0.2

	torus := base
	torus.LookAhead, torus.Torus = true, true
	cfgs, keys = append(cfgs, torus), append(keys, "torus")

	xy := base
	xy.Algorithm, xy.Table = core.AlgXY, table.KindFull
	cfgs, keys = append(cfgs, xy), append(keys, "proud-xy-full")
	return cfgs, keys
}

// TestGoldenEvent pins the event kernel to the bit. Event mode is not
// bit-comparable to cycle mode, but it is deterministic per config, so a
// refactor of the express path must reproduce these Results exactly; the
// equivalence bounds (TestEventModeObservationalEquivalence) only say how
// far a deliberate semantic change may move them. Regenerate (only when a
// semantic change is intended) with: go test ./internal/core -run
// TestGoldenEvent -update
func TestGoldenEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("golden event grid is 26 full runs; skipped under -short")
	}
	cfgs, keys := goldenEventGrid()
	got := make(map[string]string, len(cfgs))
	for i, c := range cfgs {
		r, err := core.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", keys[i], err)
		}
		got[keys[i]] = fingerprint(r)
	}
	compareGolden(t, "golden_event.txt", "TestGoldenEvent", got)
}

// goldenTablesGrid pins every table organization, which the grids above
// cover only as es and full: on a healthy 8x8 mesh all five kinds (interval
// with yx, the one interval-expressible order) x both pipelines x uniform
// and transpose; es, full and interval under a static 3-link plan and under
// a timed storm of the same links; es and full on a 4x4 torus; and one row
// of each of those on the event kernel.
func goldenTablesGrid(t *testing.T) (cfgs []core.Config, keys []string) {
	t.Helper()
	base := core.DefaultConfig()
	base.Dims = []int{8, 8}
	base.Selection = selection.LRU
	base.Load = 0.2
	base.Warmup, base.Measure = 100, 1000
	m := base.Mesh()
	static, err := fault.ParseSchedule(m, "27-28,35-43,20-21")
	if err != nil {
		t.Fatal(err)
	}
	storm, err := fault.ParseSchedule(m, "27-28@1100:1800,35-43@1300,20-21@1400:2000")
	if err != nil {
		t.Fatal(err)
	}
	withKind := func(c core.Config, k table.Kind) core.Config {
		c.Table = k
		if k == table.KindInterval {
			c.Algorithm = core.AlgYX
		}
		return c
	}
	add := func(c core.Config, key string) { cfgs, keys = append(cfgs, c), append(keys, key) }
	for _, k := range table.Kinds {
		for _, pat := range []traffic.Kind{traffic.Uniform, traffic.Transpose} {
			for _, la := range []bool{false, true} {
				c := withKind(base, k)
				c.Pattern, c.LookAhead = pat, la
				add(c, fmt.Sprintf("healthy/%s/%s/la=%t", k, pat, la))
			}
		}
		c := withKind(base, k)
		c.EventMode = true
		add(c, fmt.Sprintf("healthy/%s/events", k))
	}
	for _, pl := range []struct {
		name string
		s    *fault.Schedule
	}{{"static", static}, {"storm", storm}} {
		for _, k := range []table.Kind{table.KindES, table.KindFull, table.KindInterval} {
			for _, la := range []bool{false, true} {
				c := withKind(base, k)
				c.Faults, c.Load, c.LookAhead = pl.s, 0.1, la
				add(c, fmt.Sprintf("%s/%s/la=%t", pl.name, k, la))
			}
			c := withKind(base, k)
			c.Faults, c.Load, c.EventMode = pl.s, 0.1, true
			add(c, fmt.Sprintf("%s/%s/events", pl.name, k))
		}
	}
	for _, k := range []table.Kind{table.KindES, table.KindFull} {
		for _, la := range []bool{false, true} {
			c := withKind(base, k)
			c.Dims, c.Torus, c.LookAhead = []int{4, 4}, true, la
			add(c, fmt.Sprintf("torus/%s/la=%t", k, la))
		}
		c := withKind(base, k)
		c.Dims, c.Torus, c.EventMode = []int{4, 4}, true, true
		add(c, fmt.Sprintf("torus/%s/events", k))
	}
	return cfgs, keys
}

// TestGoldenTables locks what every table organization routes the way the
// grids above lock the kernels. Regenerate (only when a semantic change is
// intended) with: go test ./internal/core -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden table grid is 49 full runs; skipped under -short")
	}
	cfgs, keys := goldenTablesGrid(t)
	got := make(map[string]string, len(cfgs))
	for i, c := range cfgs {
		r, err := core.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", keys[i], err)
		}
		got[keys[i]] = scheduleFingerprint(r)
	}
	compareGolden(t, "golden_tables.txt", "TestGoldenTables", got)
}

// goldenSelectionGrid pins every path-selection policy, which the grids
// above cover only as lru (and notify-lru in TestNotifyBurstyDeterminism,
// against itself): on an 8x8 Duato mesh, every selection.Kinds entry x
// both pipelines x both kernels x two loads.
func goldenSelectionGrid() (cfgs []core.Config, keys []string) {
	base := core.DefaultConfig()
	base.Dims = []int{8, 8}
	base.Warmup, base.Measure = 100, 1000
	for _, k := range selection.Kinds {
		for _, la := range []bool{false, true} {
			for _, events := range []bool{false, true} {
				for _, load := range []float64{0.2, 0.4} {
					c := base
					c.Selection, c.LookAhead, c.EventMode, c.Load = k, la, events, load
					cfgs = append(cfgs, c)
					keys = append(keys, fmt.Sprintf("%s/la=%t/ev=%t/load=%.2f", k, la, events, load))
				}
			}
		}
	}
	return cfgs, keys
}

// TestGoldenSelection locks what every selection policy picks the way the
// grids above lock the kernels. Regenerate (only when a semantic change is
// intended) with: go test ./internal/core -run TestGoldenSelection -update
func TestGoldenSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("golden selection grid is 72 full runs; skipped under -short")
	}
	cfgs, keys := goldenSelectionGrid()
	got := make(map[string]string, len(cfgs))
	for i, c := range cfgs {
		r, err := core.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", keys[i], err)
		}
		got[keys[i]] = fingerprint(r)
	}
	compareGolden(t, "golden_selection.txt", "TestGoldenSelection", got)
}

// TestGoldenShuffledRecycling runs the five golden grids as one list,
// twice, each pass in its own shuffled order, and holds every result to the
// committed fixtures. The five tests above already recycle — they call
// core.Run in one process, so each point after the first of its shape runs
// in the arena the previous one returned — but always in fixture order;
// here a PROUD point follows a faulted one follows a storm-swept one
// follows an overloaded one, on both kernels, and every point also runs in
// an arena that has already run the whole list. Which arena a run gets, and
// what ran in it before, must be unobservable.
func TestGoldenShuffledRecycling(t *testing.T) {
	if testing.Short() {
		t.Skip("two passes over all 140 golden points; skipped under -short")
	}
	if *updateGolden {
		t.Skip("the fixtures are written by the five grid tests")
	}
	type point struct {
		file, key string
		cfg       core.Config
		print     func(core.Result) string
	}
	var pts []point
	for _, c := range goldenGrid() {
		pts = append(pts, point{"golden_kernel.txt", goldenKey(c), c, fingerprint})
	}
	cfgs, keys := goldenFaultGrid(t)
	for i, c := range cfgs {
		pts = append(pts, point{"golden_faults.txt", keys[i], c, fingerprint})
	}
	cfgs, keys = goldenEventGrid()
	for i, c := range cfgs {
		pts = append(pts, point{"golden_event.txt", keys[i], c, fingerprint})
	}
	cfgs, keys = goldenScheduleGrid(t)
	for i, c := range cfgs {
		pts = append(pts, point{"golden_schedule.txt", keys[i], c, scheduleFingerprint})
	}
	cfgs, keys = goldenTablesGrid(t)
	for i, c := range cfgs {
		pts = append(pts, point{"golden_tables.txt", keys[i], c, scheduleFingerprint})
	}
	rng := rand.New(rand.NewSource(22))
	for pass := 0; pass < 2; pass++ {
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		got := map[string]map[string]string{}
		for _, p := range pts {
			r, err := core.Run(p.cfg)
			if err != nil {
				t.Fatalf("pass %d, %s %s: %v", pass, p.file, p.key, err)
			}
			if got[p.file] == nil {
				got[p.file] = map[string]string{}
			}
			got[p.file][p.key] = p.print(r)
		}
		for file, m := range got {
			compareGolden(t, file, "TestGoldenShuffledRecycling", m)
		}
	}
}

// compareGolden diffs got against testdata/<file>, or rewrites the
// fixture under -update.
func compareGolden(t *testing.T, file, testName string, got map[string]string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		sb.WriteString("# Kernel determinism fixture. One line per grid point: <key> <fingerprint>\n")
		fmt.Fprintf(&sb, "# Regenerate: go test ./internal/core -run %s -update\n", testName)
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s\t%s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), path)
		return
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update to create): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line: %q", line)
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, grid has %d", len(want), len(got))
	}
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from golden fixture", k)
			continue
		}
		if g != w {
			t.Errorf("%s: kernel diverged from golden\n got %s\nwant %s", k, g, w)
		}
	}
}

// TestNotifyBurstyDeterminism: MMPP sources and notification selection
// must be reproducible — two runs of the same configuration return
// bit-identical Results, on both execution kernels (event mode is not
// bit-comparable to cycle mode, but each kernel must agree with itself).
func TestNotifyBurstyDeterminism(t *testing.T) {
	t.Parallel()
	base := core.DefaultConfig()
	base.Dims = []int{8, 8}
	base.Pattern = traffic.Hotspot
	base.Selection = selection.NotifyLRU
	base.Burst = &traffic.Burst{OnFrac: 0.3, MeanOn: 100}
	base.QoS = &core.QoSSpec{HiFrac: 0.2, HiVCs: 1}
	base.Load = 0.1
	base.Warmup, base.Measure = 100, 800
	for _, events := range []bool{false, true} {
		cfg := base
		cfg.EventMode = events
		var want string
		for rep := 0; rep < 2; rep++ {
			r, err := core.Run(cfg)
			if err != nil {
				t.Fatalf("events=%t rep %d: %v", events, rep, err)
			}
			if r.Delivered == 0 {
				t.Fatalf("events=%t: nothing delivered", events)
			}
			got := fmt.Sprintf("%+v", r)
			if rep == 0 {
				want = got
			} else if got != want {
				t.Errorf("events=%t: reruns diverge:\n got %s\nwant %s", events, got, want)
			}
		}
	}
}
