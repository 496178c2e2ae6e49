package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapses/internal/core"
	"lapses/internal/sweep"
)

// fastCluster is a coordinator config tight enough that orphan detection
// and requeue cycles complete within test time: 200ms TTL (so 50ms
// heartbeats).
func fastCluster() *ClusterOptions {
	return &ClusterOptions{LeaseTTL: 200 * time.Millisecond}
}

// startWorker opens its own Store over dir (the shared cluster
// directory — a separate *Store per process, one directory, exactly the
// deployment topology) and runs a Worker against the coordinator until
// the returned stop function is called.
func startWorker(t *testing.T, id, dir, coord string, runner func(core.Config) (core.Result, error)) (stop func()) {
	t.Helper()
	ws, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{
		ID:           id,
		Coordinators: []string{coord},
		Store:        ws,
		Workers:      1,
		Runner:       runner,
		IdleWait:     10 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return stop
}

// countingRunner wraps scripted with a per-key simulation counter shared
// across workers, so tests can assert the exactly-once-simulation
// property: no config key is ever simulated twice cluster-wide.
func countingRunner(counts *sync.Map) func(core.Config) (core.Result, error) {
	return func(c core.Config) (core.Result, error) {
		n, _ := counts.LoadOrStore(c.Key(), new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		return scripted(c)
	}
}

func assertExactlyOnce(t *testing.T, counts *sync.Map) {
	t.Helper()
	counts.Range(func(k, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("config %v simulated %d times, want exactly 1", k, n)
		}
		return true
	})
}

// TestClusterEndToEnd: a grid executed by a coordinator leasing work to
// three workers over a shared store must merge byte-identical to the
// same grid run in-process by sweep.Run, with no point simulated twice;
// resubmitting the grid must lease nothing and serve purely from the
// store.
func TestClusterEndToEnd(t *testing.T) {
	t.Parallel()
	grid := testGrid(10)
	want, err := sweep.Run(context.Background(), grid, sweep.Options{Runner: scripted})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	srv, c := testServer(t, dir, ServerOptions{Cluster: fastCluster()})
	if srv.Mode() != "coordinator" {
		t.Fatalf("Mode() = %q, want coordinator", srv.Mode())
	}
	var counts sync.Map
	for i := 0; i < 3; i++ {
		startWorker(t, fmt.Sprintf("w%d", i), dir, c.Base, countingRunner(&counts))
	}

	got, err := c.Run(context.Background(), grid, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("point %d: %v", i, got[i].Err)
		}
		if got[i].Result != want[i].Result {
			t.Fatalf("point %d diverged from in-process run:\nclustered  %+v\nin-process %+v", i, got[i].Result, want[i].Result)
		}
	}
	assertExactlyOnce(t, &counts)

	// Resubmission resolves entirely from the store before any lease is
	// cut: all points cached, zero new simulations.
	again, err := c.Run(context.Background(), grid, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !again[i].Cached || again[i].Result != want[i].Result {
			t.Fatalf("resubmitted point %d: cached=%v err=%v", i, again[i].Cached, again[i].Err)
		}
	}
	assertExactlyOnce(t, &counts)

	cs, err := c.ClusterStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Coordinator || cs.Claims == 0 || cs.WorkersSeen != 3 {
		t.Fatalf("cluster stats: %+v", cs)
	}
}

// TestClusterNonFiniteResult: a point simulated by a real worker whose
// result a JSON number cannot say — one measured message leaves the
// confidence half-width at +Inf — crosses both hops (worker to coordinator,
// coordinator to client) intact on the first lease, is durable, and a
// resubmission serves all three points from the store.
func TestClusterNonFiniteResult(t *testing.T) {
	t.Parallel()
	grid := make([]core.Config, 3)
	for i := range grid {
		c := core.DefaultConfig()
		c.Dims, c.Load, c.Warmup, c.Measure, c.Seed = []int{4, 4}, 0.1, 0, 50, int64(i+1)
		grid[i] = c
	}
	grid[1].Measure = 1
	if res, err := core.Run(grid[1]); err != nil || !math.IsInf(res.CI95, 1) {
		t.Fatalf("a one-message run no longer has an infinite CI (%v, err=%v); pick another non-finite point", res.CI95, err)
	}

	dir := t.TempDir()
	_, c := testServer(t, dir, ServerOptions{Cluster: fastCluster()})
	startWorker(t, "w0", dir, c.Base, nil)
	for pass := 0; pass < 2; pass++ {
		got, err := c.Run(context.Background(), grid, sweep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			want, _ := core.Run(grid[i])
			if got[i].Err != nil || got[i].Result != want || got[i].Cached != (pass == 1) {
				t.Errorf("pass %d point %d: %+v cached=%v err=%v, want %+v", pass, i, got[i].Result, got[i].Cached, got[i].Err, want)
			}
		}
	}
	cs, err := c.ClusterStats(context.Background())
	if err != nil || cs.Claims != 3 || cs.OrphanRequeues != 0 || cs.ExhaustedUnits != 0 {
		t.Errorf("each point should complete on its first lease and the resubmission need none: %+v err=%v", cs, err)
	}
	st, err := c.StoreStats(context.Background())
	if err != nil || st.PutFailures != 0 || st.Entries != 3 {
		t.Errorf("store after a non-finite result: %+v err=%v", st, err)
	}
}

// TestClusterOrphanRecovery is the chaos pin: one of three workers is
// partitioned away mid-lease (its heartbeats and completion stop
// reaching the coordinator — the observable signature of kill -9, a
// network partition, or a hang). The coordinator's failure detector
// must requeue the orphaned lease within ~one TTL, the survivors must
// finish the job, the merged results must be identical to an in-process
// run, and no point may be simulated twice — the partitioned worker's
// already-persisted point comes back as a store hit.
func TestClusterOrphanRecovery(t *testing.T) {
	t.Parallel()
	grid := testGrid(8)
	want, err := sweep.Run(context.Background(), grid, sweep.Options{Runner: scripted})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	_, c := testServer(t, dir, ServerOptions{Cluster: fastCluster()})

	// Worker "victim" simulates its first two points normally and
	// reports them, then loses its network while simulating the third,
	// which persists to the shared store but is never reported: from the
	// coordinator's side it simply goes silent.
	var counts sync.Map
	count := countingRunner(&counts)
	var severed atomic.Bool
	victimKey := grid[2].Key()
	victimRunner := func(cfg core.Config) (core.Result, error) {
		if cfg.Key() == victimKey {
			severed.Store(true)
		}
		return count(cfg)
	}
	vs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := &Worker{
		ID:           "victim",
		Coordinators: []string{c.Base},
		Store:        vs,
		Workers:      1,
		Runner:       victimRunner,
		IdleWait:     10 * time.Millisecond,
		HTTP:         &http.Client{Transport: &severableTransport{severed: &severed}},
	}
	vctx, vcancel := context.WithCancel(context.Background())
	vdone := make(chan struct{})
	go func() { defer close(vdone); victim.Run(vctx) }()
	t.Cleanup(func() { vcancel(); <-vdone })

	// Submit, then let the victim persist its unreported point before the
	// survivors join, so the orphaned lease is guaranteed to exist and its
	// point is durable. (A survivor's Open removes the temp files it finds
	// in the shared directory, an in-flight write's included.)
	st, err := c.Submit(context.Background(), mustPoints(t, grid))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, durable := vs.Get(victimKey); !durable; _, durable = vs.Get(victimKey) {
		if time.Now().After(deadline) {
			t.Fatal("victim never persisted its partitioned point")
		}
		time.Sleep(2 * time.Millisecond)
	}
	startWorker(t, "survivor-1", dir, c.Base, count)
	startWorker(t, "survivor-2", dir, c.Base, count)

	// The job must complete despite the victim never reporting.
	jobID := st.ID
	st = waitState(t, c, jobID, func(st JobStatus) bool { return st.Terminal() })
	if st.State != JobDone || st.Failed != 0 {
		t.Fatalf("job ended %s with %d failures: %s", st.State, st.Failed, st.Error)
	}

	res, err := c.Results(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Outcomes[i].Error != "" {
			t.Fatalf("point %d: %s", i, res.Outcomes[i].Error)
		}
		if *res.Outcomes[i].Result != want[i].Result {
			t.Fatalf("point %d diverged after chaos:\nclustered  %+v\nin-process %+v", i, *res.Outcomes[i].Result, want[i].Result)
		}
	}
	// The exactly-once pin: the victim persisted grid[2] but never
	// reported it; the survivor that re-executed the requeued lease must
	// have served it from the store, not re-simulated it.
	assertExactlyOnce(t, &counts)

	cs, err := c.ClusterStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.OrphanRequeues < 1 {
		t.Fatalf("orphaned lease was never requeued: %+v", cs)
	}
}

// TestClusterStaleJobCompletionDropped: a completion from a lease
// granted under an earlier job must be dropped wholesale when it arrives
// after a job transition — its indices point into the old job's grid, so
// merging it would stamp job A's results onto job B's configs and
// persist them under B's keys. The coordinator must answer Late, record
// nothing, and job B must still produce its own results.
func TestClusterStaleJobCompletionDropped(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, c := testServer(t, dir, ServerOptions{Cluster: fastCluster()})
	ctx := context.Background()

	// Job A: submitted with no workers attached; claim a point by hand.
	gridA := testGrid(4)
	stA, err := c.Submit(ctx, mustPoints(t, gridA))
	if err != nil {
		t.Fatal(err)
	}
	grantA := claimUntilGranted(t, c, "stale-worker")

	// Job A ends (cancelled) and job B — different configs — takes over.
	if _, err := c.Cancel(ctx, stA.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, stA.ID, func(st JobStatus) bool { return st.Terminal() })
	gridB := testGrid(4)
	for i := range gridB {
		gridB[i].Seed += 1000 // distinct configs, distinct store keys
	}
	stB, err := c.Submit(ctx, mustPoints(t, gridB))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, stB.ID, func(st JobStatus) bool { return st.State == JobRunning })
	// A running job publishes its lease grid only after its store
	// pre-scan; wait for it, so the report below meets job B's grid and
	// not the gap between the two jobs.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		cs, err := c.ClusterStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if cs.ActiveJob == stB.ID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job B's lease grid never became active: %+v", cs)
		}
	}

	// The stale worker finally reports job A's lease, carrying a poison
	// result at index 0. Pre-fix this was record()ed into job B's grid
	// and Ensure()d into the store under B's config key.
	poison := core.Result{AvgLatency: -999, Delivered: -1}
	resp, err := c.Complete(ctx, grantA.Lease, grantA.Job, "stale-worker", []PointReport{
		{Index: grantA.Indices[0], Result: &poison},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Late {
		t.Fatalf("stale-job completion not reported late: %+v", resp)
	}
	st, err := c.Status(ctx, stB.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 0 {
		t.Fatalf("stale-job completion resolved %d of job B's points", st.Completed)
	}

	// Job B completes normally and its results are its own — not job A's
	// poison, neither merged directly nor resurrected via the store.
	for range gridB {
		grantB := claimUntilGranted(t, c, "fresh-worker")
		cfg, err := grantB.Points[0].Config()
		if err != nil {
			t.Fatal(err)
		}
		res, _ := scripted(cfg)
		if _, err := c.Complete(ctx, grantB.Lease, grantB.Job, "fresh-worker", []PointReport{{Index: grantB.Indices[0], Result: &res}}); err != nil {
			t.Fatal(err)
		}
	}
	final := waitState(t, c, stB.ID, func(st JobStatus) bool { return st.Terminal() })
	if final.State != JobDone || final.Failed != 0 {
		t.Fatalf("job B ended %s with %d failures: %s", final.State, final.Failed, final.Error)
	}
	res, err := c.Results(ctx, stB.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gridB {
		want, _ := scripted(gridB[i])
		if *res.Outcomes[i].Result != want {
			t.Fatalf("job B point %d poisoned by job A's stale completion: %+v", i, *res.Outcomes[i].Result)
		}
	}

	cs, err := c.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.LateReports < 1 {
		t.Fatalf("stale-job completion not counted late: %+v", cs)
	}
}

// claimUntilGranted claims as worker with a held claim, so the grant
// arrives as soon as the submitted job's points are queued for lease.
func claimUntilGranted(t *testing.T, c *Client, worker string) ClaimResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		grant, err := c.Claim(ctx, worker, time.Second)
		if err != nil {
			t.Fatalf("no lease granted: %v", err)
		}
		if grant.Lease != "" {
			return grant
		}
	}
}

// TestWorkerRunsWorkersLeasesAtOnce: a Worker runs Workers leases, one
// point each, at once and never more; it claims only while one of its
// slots is free, so the coordinator never has more leases out than the
// fleet has slots; and a second worker started once the first is busy
// gets the points the first cannot start. Every key is simulated once.
func TestWorkerRunsWorkersLeasesAtOnce(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name                   string
		workers, points, fleet int
	}{
		{"no wider than the worker", 2, 8, 1},
		{"no lease it cannot start", 2, 8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			srv, c := testServer(t, dir, ServerOptions{Cluster: &ClusterOptions{LeaseTTL: 10 * time.Second}})
			var counts sync.Map
			count := countingRunner(&counts)
			want := tc.workers * tc.fleet
			var mu sync.Mutex
			running, peak, leased := 0, 0, 0
			started, full := make(chan struct{}), make(chan struct{})
			runner := func(cfg core.Config) (core.Result, error) {
				srv.mu.Lock()
				out := len(srv.cluster.active)
				srv.mu.Unlock()
				mu.Lock()
				leased = max(leased, out)
				if running++; running > peak {
					if peak = running; peak == 1 {
						close(started)
					}
					if peak == want {
						close(full)
					}
				}
				mu.Unlock()
				select { // bounded: a fleet that never fills still finishes
				case <-full:
				case <-time.After(2 * time.Second):
				}
				mu.Lock()
				running--
				mu.Unlock()
				return count(cfg)
			}
			type result struct {
				outs []sweep.Outcome
				err  error
			}
			done := make(chan result, 1)
			go func() {
				outs, err := c.Run(context.Background(), testGrid(tc.points), sweep.Options{})
				done <- result{outs, err}
			}()
			for k := range tc.fleet {
				if k == 1 {
					<-started // the first worker has claimed all it will
				}
				ws, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				w := &Worker{ID: fmt.Sprintf("w%d", k), Coordinators: []string{c.Base}, Store: ws, Workers: tc.workers, Runner: runner, IdleWait: 10 * time.Millisecond}
				ctx, cancel := context.WithCancel(context.Background())
				stopped := make(chan struct{})
				go func() {
					defer close(stopped)
					w.Run(ctx)
				}()
				t.Cleanup(func() {
					cancel()
					<-stopped
				})
			}

			r := <-done
			if r.err != nil {
				t.Fatal(r.err)
			}
			for i, o := range r.outs {
				if o.Err != nil {
					t.Fatalf("point %d: %v", i, o.Err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if peak != want {
				t.Errorf("at most %d points ran at once, want %d", peak, want)
			}
			if leased > want {
				t.Errorf("%d leases out at once, more than the fleet's %d slots", leased, want)
			}
			assertExactlyOnce(t, &counts)
		})
	}
}

// TestClusterGrantKeysLikeSubmission: a grant's point is rebuilt from
// the job's config, and must key exactly like the point submitted at its
// index, a faulted point spelled in a non-canonical form included.
func TestClusterGrantKeysLikeSubmission(t *testing.T) {
	t.Parallel()
	_, c := testServer(t, t.TempDir(), ServerOptions{Cluster: &ClusterOptions{LeaseTTL: 10 * time.Second}})
	points := mustPoints(t, testGrid(3))
	points[1].Dims, points[1].Faults = []int{8, 8}, "1-2@0,r27@0"
	body, err := json.Marshal(jobRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"faults":"1-2@0,r27@0"`)) {
		t.Fatalf("faulted point not submitted as spelled: %s", body)
	}
	if err := c.do(context.Background(), http.MethodPost, "/v1/jobs", json.RawMessage(body), nil); err != nil {
		t.Fatal(err)
	}
	for range points {
		grant := claimUntilGranted(t, c, "w")
		if len(grant.Points) != 1 || len(grant.Indices) != 1 {
			t.Fatalf("grant: %+v, want one point", grant)
		}
		i := grant.Indices[0]
		sent, err := points[i].Config()
		if err != nil {
			t.Fatal(err)
		}
		got, err := grant.Points[0].Config()
		if err != nil || got.Key() != sent.Key() {
			t.Errorf("granted point %d keys %q (err %v), submitted %q", i, got.Key(), err, sent.Key())
		}
	}
}

// TestClusterLeaseCadence: the heartbeat cadence is a quarter of the
// lease TTL, advertised in every grant as heartbeat_ms and as the
// retry_ms of a claim the coordinator did not hold.
func TestClusterLeaseCadence(t *testing.T) {
	t.Parallel()
	_, c := testServer(t, t.TempDir(), ServerOptions{Cluster: &ClusterOptions{LeaseTTL: 1200 * time.Millisecond}})
	ctx := context.Background()
	idle, err := c.Claim(ctx, "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if idle.Lease != "" || idle.RetryMS != 300 {
		t.Fatalf("unheld claim with no work: %+v, want no lease and retry_ms 300", idle)
	}
	if _, err := c.Submit(ctx, mustPoints(t, testGrid(2))); err != nil {
		t.Fatal(err)
	}
	grant := claimUntilGranted(t, c, "w")
	if grant.TTLMS != 1200 || grant.HeartbeatMS != 300 {
		t.Fatalf("grant advertises ttl_ms %d, heartbeat_ms %d; want 1200, 300", grant.TTLMS, grant.HeartbeatMS)
	}
}

// TestClusterLeaseEpoch: lease identities must be unique across
// coordinator incarnations — two servers over the same store mint
// different epochs, so a stale lease from incarnation one can neither
// renew nor complete against incarnation two even though job IDs restart
// from j000001.
func TestClusterLeaseEpoch(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, c1 := testServer(t, dir, ServerOptions{Cluster: fastCluster()})
	_, c2 := testServer(t, t.TempDir(), ServerOptions{Cluster: fastCluster()})
	ctx := context.Background()
	grid := testGrid(2)

	if _, err := c1.Submit(ctx, mustPoints(t, grid)); err != nil {
		t.Fatal(err)
	}
	g1 := claimUntilGranted(t, c1, "w")
	if _, err := c2.Submit(ctx, mustPoints(t, grid)); err != nil {
		t.Fatal(err)
	}
	g2 := claimUntilGranted(t, c2, "w")
	if g1.Lease == g2.Lease || g1.Job == g2.Job {
		t.Fatalf("lease identity collided across incarnations: %q/%q vs %q/%q", g1.Lease, g1.Job, g2.Lease, g2.Job)
	}

	// Incarnation two must refuse the stale incarnation's lease outright.
	if ok, err := c2.Heartbeat(ctx, g1.Lease, "w"); err != nil || ok {
		t.Fatalf("stale-incarnation heartbeat renewed a lease: ok=%v err=%v", ok, err)
	}
	poison := core.Result{AvgLatency: -1}
	resp, err := c2.Complete(ctx, g1.Lease, g1.Job, "w", []PointReport{{Index: 0, Result: &poison}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Late {
		t.Fatal("stale-incarnation completion was accepted as current")
	}
	st, err := c2.Status(ctx, "j000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 0 {
		t.Fatalf("stale-incarnation completion resolved %d points", st.Completed)
	}
}

// severableTransport drops every request once severed flips — the
// worker-side view of a network partition.
type severableTransport struct {
	severed *atomic.Bool
}

func (s *severableTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if s.severed.Load() {
		return nil, fmt.Errorf("network partitioned")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestClusterPanicRequeueAndReport: a point whose simulation panics must
// (a) not kill any worker, (b) fail permanently on its first lease — the
// simulator is deterministic, so a panic is a property of the config and
// is never requeued — with the panic message surviving into the job's
// error report. Healthy points in the same grid must still succeed.
func TestClusterPanicRequeueAndReport(t *testing.T) {
	t.Parallel()
	grid := testGrid(4)
	poison := grid[1].Key()

	dir := t.TempDir()
	_, c := testServer(t, dir, ServerOptions{
		Cluster:     fastCluster(),
		MaxAttempts: 2,
	})
	runner := func(cfg core.Config) (core.Result, error) {
		if cfg.Key() == poison {
			panic("deliberate fault injection: simulator blew up")
		}
		return scripted(cfg)
	}
	startWorker(t, "w0", dir, c.Base, runner)
	startWorker(t, "w1", dir, c.Base, runner)

	st, err := c.Submit(context.Background(), mustPoints(t, grid))
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, c, st.ID, func(st JobStatus) bool { return st.Terminal() })
	// The job-level report carries the panic message.
	if st.State != JobFailed || !strings.Contains(st.Error, "deliberate fault injection") {
		t.Fatalf("job report: state=%s error=%q", st.State, st.Error)
	}

	res, err := c.Results(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := scripted(grid[0])
	for _, i := range []int{0, 2, 3} {
		if res.Outcomes[i].Error != "" {
			t.Fatalf("healthy point %d failed: %s", i, res.Outcomes[i].Error)
		}
	}
	if *res.Outcomes[0].Result != want {
		t.Fatalf("healthy point 0 wrong result: %+v", *res.Outcomes[0].Result)
	}
	msg := res.Outcomes[1].Error
	if msg == "" {
		t.Fatal("poisoned point succeeded; the panic was swallowed")
	}
	if strings.Contains(msg, "giving up") {
		t.Fatalf("poisoned point was requeued before failing: %s", msg)
	}
	if !strings.Contains(msg, "deliberate fault injection") {
		t.Fatalf("panic message did not survive into the error report: %s", msg)
	}

	cs, err := c.ClusterStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.TransientRequeues != 0 || cs.ExhaustedUnits != 0 {
		t.Fatalf("a panic was requeued: %+v", cs)
	}
}

// TestOneExecutionPath: a standalone server runs a job the way a
// coordinator with remote workers does — through leases — so one grid,
// holding a repeated and a panicking point, comes back byte-identical
// from both. The standalone slots share the server's store, so the repeat
// is a hit and each other point simulates exactly once; the slots' leases
// show in GET /v1/cluster.
func TestOneExecutionPath(t *testing.T) {
	t.Parallel()
	grid := testGrid(6)
	grid = append(grid, grid[2]) // the repeat
	poison := grid[4].Key()
	runner := func(cfg core.Config) (core.Result, error) {
		if cfg.Key() == poison {
			panic("deliberate fault injection: simulator blew up")
		}
		return scripted(cfg)
	}
	run := func(c *Client) JobResults {
		t.Helper()
		ctx := context.Background()
		st, err := c.Submit(ctx, mustPoints(t, grid))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		res, err := c.Results(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	_, alone := testServer(t, t.TempDir(), ServerOptions{Workers: 2, Runner: runner})
	standalone := run(alone)
	dir := t.TempDir()
	_, coord := testServer(t, dir, ServerOptions{Cluster: fastCluster()})
	startWorker(t, "w0", dir, coord.Base, runner)
	startWorker(t, "w1", dir, coord.Base, runner)
	clustered := run(coord)

	for i := range grid {
		a, b := standalone.Outcomes[i], clustered.Outcomes[i]
		ra, _ := json.Marshal(a.Result)
		rb, _ := json.Marshal(b.Result)
		if a.Error != b.Error || !bytes.Equal(ra, rb) {
			t.Errorf("point %d: standalone %s %q, clustered %s %q", i, ra, a.Error, rb, b.Error)
		}
	}
	if msg := standalone.Outcomes[4].Error; !strings.Contains(msg, "deliberate fault injection") {
		t.Errorf("panicking point: %q", msg)
	}
	if st := standalone.Status; st.Simulated != 5 || st.Cached != 1 || st.Failed != 1 {
		t.Errorf("standalone job: %+v, want the 5 unique healthy points simulated once, the repeat cached and the panic failed", st)
	}
	cs, err := alone.ClusterStats(context.Background())
	if err != nil || cs.Coordinator || cs.Claims == 0 || cs.WorkersSeen != 1 {
		t.Errorf("standalone GET /v1/cluster: %+v err=%v, want its in-process leases, claimed by its one Worker", cs, err)
	}
}

// TestClusterDrainRequeuesUnstarted: cancelling a worker mid-lease (the
// graceful SIGTERM drain) lets its running point finish, persist and be
// reported, and leaves it holding no lease it has not started, so
// another worker finishes the job without waiting out the lease TTL.
// (A lease it claimed but never started is handed back with an empty
// report: TestClusterHandBackRequeuesAtOnce.)
func TestClusterDrainRequeuesUnstarted(t *testing.T) {
	t.Parallel()
	grid := testGrid(4)
	dir := t.TempDir()
	// A long TTL: if drain fell back to orphan expiry, the job could not
	// finish inside the test deadline.
	_, c := testServer(t, dir, ServerOptions{
		Cluster: &ClusterOptions{LeaseTTL: 30 * time.Second},
	})

	var counts sync.Map
	count := countingRunner(&counts)
	reached := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	slowKey := grid[1].Key()
	drainRunner := func(cfg core.Config) (core.Result, error) {
		if cfg.Key() == slowKey {
			once.Do(func() { close(reached) })
			<-release
		}
		return count(cfg)
	}
	stopDraining := startWorker(t, "draining", dir, c.Base, drainRunner)

	points := mustPoints(t, grid)
	st, err := c.Submit(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}

	<-reached
	// SIGTERM the draining worker: its in-flight point (grid[1]) finishes,
	// persists and is reported, and it claims neither grid[2] nor grid[3].
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	stopDraining()
	startWorker(t, "finisher", dir, c.Base, count)

	final := waitState(t, c, st.ID, func(st JobStatus) bool { return st.Terminal() })
	if final.State != JobDone || final.Failed != 0 {
		t.Fatalf("job ended %s with %d failures: %s", final.State, final.Failed, final.Error)
	}
	assertExactlyOnce(t, &counts)
}

// TestClusterHandBackRequeuesAtOnce: a completion that reports nothing —
// a draining worker's lease whose point never started — hands the point
// back. It is claimable again at once, on its second attempt, long
// before the lease TTL, and counted as a transient requeue, not an
// orphan.
func TestClusterHandBackRequeuesAtOnce(t *testing.T) {
	t.Parallel()
	_, c := testServer(t, t.TempDir(), ServerOptions{Cluster: &ClusterOptions{LeaseTTL: 30 * time.Second}})
	ctx := context.Background()
	if _, err := c.Submit(ctx, mustPoints(t, testGrid(1))); err != nil {
		t.Fatal(err)
	}
	first := claimUntilGranted(t, c, "draining")
	if resp, err := c.Complete(ctx, first.Lease, first.Job, "draining", nil); err != nil || resp.Late {
		t.Fatalf("hand-back: %+v err=%v", resp, err)
	}
	again, err := c.Claim(ctx, "finisher", 0) // unheld: answered from the queue as it stands
	if err != nil {
		t.Fatal(err)
	}
	if again.Lease == "" || again.Attempt != 2 || len(again.Indices) != 1 || again.Indices[0] != first.Indices[0] {
		t.Fatalf("claim after the hand-back got %+v, want point %d again on attempt 2", again, first.Indices[0])
	}
	cs, err := c.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.TransientRequeues != 1 || cs.OrphanRequeues != 0 || cs.ExhaustedUnits != 0 || cs.ActiveLeases != 1 {
		t.Fatalf("cluster stats %+v, want one transient requeue and the point out again", cs)
	}
}

// reportingPeer is a coordinator as a worker's execute sees it that
// records the worker's completion.
type reportingPeer struct{ reports chan []PointReport }

func (reportingPeer) Claim(context.Context, string, time.Duration) (ClaimResponse, error) {
	return ClaimResponse{}, nil
}

func (reportingPeer) Heartbeat(context.Context, string, string) (bool, error) { return true, nil }

func (p reportingPeer) Complete(_ context.Context, _, _, _ string, reports []PointReport) (CompleteResponse, error) {
	p.reports <- reports
	return CompleteResponse{OK: true}, nil
}

// TestWorkerFailsGrantLackingMember: a grant whose point lacks a required
// member fails that point with the message a submission of it gets, and
// the grant's other points still run. The grant holds three points, as
// one from a coordinator that leased several points at once does; the
// worker runs them one after another.
func TestWorkerFailsGrantLackingMember(t *testing.T) {
	t.Parallel()
	points := mustPoints(t, testGrid(3))
	grant := fmt.Sprintf(`{"lease":"l1","job":"j1","indices":[4,5,6],"points":[%s,%s,%s]}`,
		withMember(t, points[0], "", false), withMember(t, points[1], "seed", false), withMember(t, points[2], "lookahead", true))
	var g ClaimResponse
	if err := json.Unmarshal([]byte(grant), &g); err != nil {
		t.Fatal(err)
	}
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	peer := reportingPeer{make(chan []PointReport, 1)}
	w := &Worker{ID: "w", Store: store, Runner: scripted}
	w.execute(context.Background(), peer, g)
	want := map[int]string{
		5: `serve: point lacks required member "seed"`,
		6: `serve: point lacks required member "lookahead"`,
	}
	reports := <-peer.reports
	if len(reports) != 3 {
		t.Fatalf("reports %+v, want one per point", reports)
	}
	for _, r := range reports {
		if r.Error != want[r.Index] || (r.Error == "") != (r.Result != nil) {
			t.Errorf("point %d: result %v, error %q; want error %q", r.Index, r.Result, r.Error, want[r.Index])
		}
	}
}

// TestClusterGuards: cluster RPCs against a standalone server must be
// rejected with a descriptive 412, and malformed claims with 400.
func TestClusterGuards(t *testing.T) {
	t.Parallel()
	srv, c := testServer(t, t.TempDir(), ServerOptions{Runner: scripted})
	if srv.Mode() != "standalone" {
		t.Fatalf("Mode() = %q, want standalone", srv.Mode())
	}
	_, err := c.Claim(context.Background(), "w0", 0)
	var ae *APIStatusError
	if !errors.As(err, &ae) || ae.Code != http.StatusPreconditionFailed {
		t.Fatalf("claim against standalone: %v", err)
	}
	if !strings.Contains(ae.Message, "-mode coordinator") {
		t.Fatalf("412 should point at the fix: %s", ae.Message)
	}

	// A coordinator rejects an anonymous claim.
	_, c2 := testServer(t, t.TempDir(), ServerOptions{Cluster: fastCluster()})
	_, err = c2.Claim(context.Background(), "", 0)
	if !errors.As(err, &ae) || ae.Code != http.StatusBadRequest {
		t.Fatalf("anonymous claim: %v", err)
	}
}

// TestClusterHealthz: /healthz must surface the store's integrity
// picture — quarantine count, recovery-scan time, orphaned-temp
// removals — alongside liveness and the instance's role.
func TestClusterHealthz(t *testing.T) {
	t.Parallel()
	_, c := testServer(t, t.TempDir(), ServerOptions{Cluster: fastCluster()})
	var hr healthReport
	if err := c.do(context.Background(), http.MethodGet, "/healthz", nil, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Mode != "coordinator" {
		t.Fatalf("healthz: %+v", hr)
	}
	if hr.Store.LastScan.IsZero() {
		t.Fatal("healthz store report lacks the recovery-scan time")
	}
	if hr.Store.Quarantined != 0 || hr.Store.OrphanTempsRemoved != 0 {
		t.Fatalf("fresh store should report clean health: %+v", hr.Store)
	}
}
