package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/sweep"
	"lapses/internal/traffic"
)

// testGrid builds n valid, distinct-keyed configs (scripted runners
// never simulate them, so fidelity does not matter).
func testGrid(n int) []core.Config {
	grid := make([]core.Config, n)
	for i := range grid {
		c := core.DefaultConfig()
		c.Seed = int64(i + 1)
		c.Load = 0.1 + 0.01*float64(i)
		grid[i] = c
	}
	return grid
}

// testServer wires a Server over a temp store to an httptest listener
// and returns a fast-polling client. Shutdown is registered as cleanup
// but may be called explicitly first.
func testServer(t *testing.T, dir string, opt ServerOptions) (*Server, *Client) {
	t.Helper()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, opt)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
		hs.Close()
	})
	return srv, &Client{Base: hs.URL, PollInterval: 5 * time.Millisecond}
}

func waitState(t *testing.T, c *Client, id string, cond func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if cond(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
	return JobStatus{}
}

// TestServerEndToEnd: a grid submitted through the client must come
// back bit-identical to the same grid run in-process, and resubmitting
// it must be served entirely from the store.
func TestServerEndToEnd(t *testing.T) {
	t.Parallel()
	grid := testGrid(6)
	want, err := sweep.Run(context.Background(), grid, sweep.Options{Runner: scripted})
	if err != nil {
		t.Fatal(err)
	}

	_, c := testServer(t, t.TempDir(), ServerOptions{Runner: scripted})
	var log bytes.Buffer
	c.Verbose = &log
	got, err := c.Run(context.Background(), grid, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("point %d: %v", i, got[i].Err)
		}
		if got[i].Result != want[i].Result {
			t.Fatalf("point %d diverged from in-process run:\nserved     %+v\nin-process %+v", i, got[i].Result, want[i].Result)
		}
	}

	// Resubmission: all points served from the store, zero simulations.
	again, err := c.Run(context.Background(), grid, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !again[i].Cached || again[i].Result != want[i].Result {
			t.Fatalf("resubmitted point %d: cached=%v", i, again[i].Cached)
		}
	}
	if !strings.Contains(log.String(), "6 cached, 0 simulated") {
		t.Fatalf("verbose log lacks the all-cached summary:\n%s", log.String())
	}
	// An older client's submission (its points still carry the field of
	// the removed per-run parallelism axis; see legacyPoints) is accepted
	// and lands on the same store entries.
	var legacy JobStatus
	body := map[string]any{"points": legacyPoints(t, mustPoints(t, grid))}
	if err := c.do(context.Background(), http.MethodPost, "/v1/jobs", body, &legacy); err != nil {
		t.Fatalf("legacy submission refused: %v", err)
	}
	if done, err := c.Wait(context.Background(), legacy.ID); err != nil || done.Cached != 6 || done.Simulated != 0 {
		t.Fatalf("legacy submission: %+v err=%v, want 6 cached, 0 simulated", done, err)
	}
	res, err := c.Results(context.Background(), legacy.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Outcomes[i].Result == nil || *res.Outcomes[i].Result != want[i].Result {
			t.Fatalf("legacy point %d: stored result differs from the plain submission's", i)
		}
	}
	st, err := c.StoreStats(context.Background())
	if err != nil || st.Entries != 6 || st.Quarantined != 0 {
		t.Fatalf("store stats: %+v err=%v", st, err)
	}
}

// TestServerCrashRecoveryRoundTrip is the acceptance scenario: a grid
// is interrupted mid-execution by a shutdown, the store is reopened by
// a fresh server, and resubmitting the same grid completes — with every
// previously finished point served from disk (store-hit counters prove
// zero re-simulation) and the final outcomes bit-identical to an
// uninterrupted in-process sweep.Run. The CI serve-smoke job replays
// this with a real kill -9 between two lapses-serve processes.
func TestServerCrashRecoveryRoundTrip(t *testing.T) {
	t.Parallel()
	grid := testGrid(6)
	want, err := sweep.Run(context.Background(), grid, sweep.Options{Runner: scripted})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Phase 1: a runner that blocks on the 4th point (Seed 4) until
	// released, so the shutdown catches the job mid-grid with exactly
	// 3 points durable plus the in-flight one drained to completion.
	blocked := make(chan struct{})
	release := make(chan struct{})
	var blockOnce sync.Once
	runner := func(cfg core.Config) (core.Result, error) {
		if cfg.Seed == 4 {
			blockOnce.Do(func() { close(blocked) })
			<-release
		}
		return scripted(cfg)
	}
	srv, c := testServer(t, dir, ServerOptions{Runner: runner, Workers: 1})
	st, err := c.Submit(context.Background(), mustPoints(t, grid))
	if err != nil {
		t.Fatal(err)
	}
	<-blocked // the job is executing its 4th point

	// Shut down mid-grid: the drain must finish the in-flight point
	// (once released) and stop there.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	// Only release the blocked point once the drain has begun (healthz
	// flips to 503 under the same lock that cancels the job context).
	for deadline := time.Now().Add(10 * time.Second); ; {
		if err := c.Health(context.Background()); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shutdown never became observable")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	fin := waitState(t, c, st.ID, func(st JobStatus) bool { return st.Terminal() })
	if fin.State != JobInterrupted {
		t.Fatalf("interrupted job reports state %q", fin.State)
	}
	if fin.Completed != 4 || fin.Simulated != 4 {
		t.Fatalf("drain did not complete exactly the in-flight work: %+v", fin)
	}

	// Phase 2: a fresh server over the same store directory. Recovery
	// must find the 4 durable points intact — nothing quarantined, and
	// no re-simulation of completed work on resubmission.
	var calls atomic.Int64
	countingRunner := func(cfg core.Config) (core.Result, error) {
		calls.Add(1)
		return scripted(cfg)
	}
	_, c2 := testServer(t, dir, ServerOptions{Runner: countingRunner})
	var log bytes.Buffer
	c2.Verbose = &log
	if st, err := c2.StoreStats(context.Background()); err != nil || st.Entries != 4 || st.Quarantined != 0 {
		t.Fatalf("recovered store: %+v err=%v", st, err)
	}
	got, err := c2.Run(context.Background(), grid, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("resubmission simulated %d points, want exactly the 2 unfinished ones", calls.Load())
	}
	if !strings.Contains(log.String(), "4 cached, 2 simulated") {
		t.Fatalf("verbose log lacks the store-hit proof:\n%s", log.String())
	}
	cachedCount := 0
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("resumed point %d: %v", i, got[i].Err)
		}
		if got[i].Result != want[i].Result {
			t.Fatalf("resumed point %d diverged from the uninterrupted run", i)
		}
		if got[i].Cached {
			cachedCount++
		}
	}
	if cachedCount != 4 {
		t.Fatalf("%d points served from the store, want 4", cachedCount)
	}
}

func mustPoints(t *testing.T, grid []core.Config) []Point {
	t.Helper()
	pts, err := PointsFromGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestServerRetriesTransient: points failing transiently are retried
// with backoff inside their attempt budget and succeed without failing
// the job; the retry count is visible in the job status.
func TestServerRetriesTransient(t *testing.T) {
	t.Parallel()
	var attempts sync.Map // key -> *atomic.Int64
	runner := func(cfg core.Config) (core.Result, error) {
		v, _ := attempts.LoadOrStore(cfg.Key(), new(atomic.Int64))
		if v.(*atomic.Int64).Add(1) < 3 {
			return core.Result{}, Transient(context.DeadlineExceeded)
		}
		return scripted(cfg)
	}
	_, c := testServer(t, t.TempDir(), ServerOptions{
		Runner:      runner,
		MaxAttempts: 3,
	})
	grid := testGrid(2)
	got, err := c.Run(context.Background(), grid, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("point %d failed despite retry budget: %v", i, got[i].Err)
		}
	}
	st, err := c.StoreStats(context.Background())
	if err != nil || st.Entries != 2 {
		t.Fatalf("store after retries: %+v err=%v", st, err)
	}
}

// TestServerRetryBudgetExhausted: a point that stays transient beyond
// MaxAttempts fails that point (reported with its retry count), while
// the rest of the grid completes.
func TestServerRetryBudgetExhausted(t *testing.T) {
	t.Parallel()
	runner := func(cfg core.Config) (core.Result, error) {
		if cfg.Seed == 2 {
			return core.Result{}, Transient(context.DeadlineExceeded)
		}
		return scripted(cfg)
	}
	_, c := testServer(t, t.TempDir(), ServerOptions{
		Runner:      runner,
		MaxAttempts: 2,
	})
	grid := testGrid(3)
	got, err := c.Run(context.Background(), grid, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Err == nil || !strings.Contains(got[1].Err.Error(), "transient") {
		t.Fatalf("stubborn point: err=%v", got[1].Err)
	}
	if got[0].Err != nil || got[2].Err != nil {
		t.Fatalf("healthy points failed: %v / %v", got[0].Err, got[2].Err)
	}
}

// TestServerPanicIsolation: a panicking point fails with a PanicError
// message; the rest of the grid and the server itself survive.
func TestServerPanicIsolation(t *testing.T) {
	t.Parallel()
	runner := func(cfg core.Config) (core.Result, error) {
		if cfg.Seed == 2 {
			panic("core: unknown algorithm")
		}
		return scripted(cfg)
	}
	_, c := testServer(t, t.TempDir(), ServerOptions{Runner: runner})
	got, err := c.Run(context.Background(), testGrid(3), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Err == nil || !strings.Contains(got[1].Err.Error(), "panicked") {
		t.Fatalf("panicking point: err=%v", got[1].Err)
	}
	if got[0].Err != nil || got[2].Err != nil {
		t.Fatalf("bystander points failed: %v / %v", got[0].Err, got[2].Err)
	}
	// The server still answers.
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("server unhealthy after a point panic: %v", err)
	}
}

// TestServerBackpressure: submissions beyond the bounded queue are
// refused with 429 + Retry-After instead of queueing without bound, and
// the client's Submit absorbs the backpressure transparently.
func TestServerBackpressure(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	runner := func(cfg core.Config) (core.Result, error) {
		<-release
		return scripted(cfg)
	}
	_, c := testServer(t, t.TempDir(), ServerOptions{Runner: runner, QueueLimit: 1, Workers: 1})

	// Fill the executor and the queue: job 1 runs (blocked), job 2 waits.
	st1, err := c.Submit(context.Background(), mustPoints(t, testGrid(1)))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st1.ID, func(st JobStatus) bool { return st.State == JobRunning })
	if _, err := c.Submit(context.Background(), mustPoints(t, testGrid(2)[1:])); err != nil {
		t.Fatal(err)
	}

	// The next raw submission must bounce with 429 and Retry-After.
	var bounced JobStatus
	err = c.do(context.Background(), http.MethodPost, "/v1/jobs", jobRequest{Points: mustPoints(t, testGrid(3)[2:])}, &bounced)
	ae, ok := err.(*APIStatusError)
	if !ok || ae.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: err=%v, want 429", err)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("429 without Retry-After")
	}

	// Client.Submit keeps retrying; once capacity frees it lands.
	landed := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), mustPoints(t, testGrid(3)[2:]))
		landed <- err
	}()
	close(release)
	select {
	case err := <-landed:
		if err != nil {
			t.Fatalf("backpressured submit never landed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("backpressured submit still pending")
	}
}

// TestServerJobDeadline: a job exceeding its deadline stops at the next
// point boundary (in-flight points drain — core.Run is not
// interruptible) and fails with a descriptive error; finished points
// stay durable.
func TestServerJobDeadline(t *testing.T) {
	t.Parallel()
	runner := func(cfg core.Config) (core.Result, error) {
		if cfg.Seed >= 2 {
			time.Sleep(400 * time.Millisecond) // deadline fires mid-point
		}
		return scripted(cfg)
	}
	_, c := testServer(t, t.TempDir(), ServerOptions{Runner: runner, Workers: 1})
	c.JobTimeout = 150 * time.Millisecond

	st, err := c.Submit(context.Background(), mustPoints(t, testGrid(3)))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, c, st.ID, func(st JobStatus) bool { return st.Terminal() })
	if fin.State != JobFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("deadline job: state=%q error=%q", fin.State, fin.Error)
	}
	// Point 1 (fast) and point 2 (in flight at the deadline, drained to
	// completion) are durable; point 3 was never dispatched.
	ss, err := c.StoreStats(context.Background())
	if err != nil || ss.Entries != 2 {
		t.Fatalf("store after deadline: %+v err=%v", ss, err)
	}
}

// TestServerCancel: DELETE on a running job stops it at the next point
// boundary with state cancelled; completed points stay durable.
func TestServerCancel(t *testing.T) {
	t.Parallel()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	runner := func(cfg core.Config) (core.Result, error) {
		if cfg.Seed == 2 {
			once.Do(func() { close(started) })
			<-release
		}
		return scripted(cfg)
	}
	_, c := testServer(t, t.TempDir(), ServerOptions{Runner: runner, Workers: 1})
	st, err := c.Submit(context.Background(), mustPoints(t, testGrid(4)))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := c.Cancel(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	fin := waitState(t, c, st.ID, func(st JobStatus) bool { return st.Terminal() })
	if fin.State != JobCancelled {
		t.Fatalf("cancelled job reports %q", fin.State)
	}
	if fin.Completed < 2 || fin.Completed >= 4 {
		t.Fatalf("cancel did not stop at a point boundary: %+v", fin)
	}
	// Results of the partial job are still retrievable; unrun points
	// carry errors.
	res, err := c.Results(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 4 {
		t.Fatalf("partial results: %d outcomes", len(res.Outcomes))
	}
	if res.Outcomes[0].Result == nil || res.Outcomes[3].Error == "" {
		t.Fatalf("partial results malformed: first=%+v last=%+v", res.Outcomes[0], res.Outcomes[3])
	}
}

// TestServerRejectsMalformedJobs: bad payloads and unknown jobs get
// descriptive 4xx errors, and results of a running job are refused.
func TestServerRejectsMalformedJobs(t *testing.T) {
	t.Parallel()
	_, c := testServer(t, t.TempDir(), ServerOptions{Runner: scripted})
	ctx := context.Background()

	if err := c.do(ctx, http.MethodPost, "/v1/jobs", jobRequest{}, nil); err == nil {
		t.Error("empty job accepted")
	}
	bad := mustPoints(t, testGrid(1))
	bad[0].Algorithm = "warp-drive"
	err := c.do(ctx, http.MethodPost, "/v1/jobs", jobRequest{Points: bad}, nil)
	ae, ok := err.(*APIStatusError)
	if !ok || ae.Code != http.StatusBadRequest || !strings.Contains(ae.Message, "algorithm") {
		t.Errorf("bad point: err=%v", err)
	}
	// A point core.Config.Validate rejects is refused at submission, not
	// accepted and failed later.
	bad = mustPoints(t, testGrid(1))
	bad[0].MsgLen = 0
	err = c.do(ctx, http.MethodPost, "/v1/jobs", jobRequest{Points: bad}, nil)
	if ae, ok := err.(*APIStatusError); !ok || ae.Code != http.StatusBadRequest || !strings.Contains(ae.Message, "MsgLen") {
		t.Errorf("msg_len 0: err=%v", err)
	}
	if _, err := c.Status(ctx, "j999999"); err == nil {
		t.Error("unknown job id accepted")
	}
	if _, err := c.Results(ctx, "j999999"); err == nil {
		t.Error("unknown job results accepted")
	}
}

// TestServerBodyLimit: a request body over the cap is refused with a 4xx
// naming the limit instead of being read into memory whole, and the
// server keeps answering. The API is built as NewServer builds it, with
// a 1 MiB cap in place of maxBody, which a real request would make the
// server buffer (~200 MB, three times that under -race) to prove.
func TestServerBodyLimit(t *testing.T) {
	t.Parallel()
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{Cluster: fastCluster()}) // a coordinator reads completion bodies too
	hs := httptest.NewServer(srv.routes(1 << 20))
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		hs.Close()
	})
	for _, path := range []string{"/v1/jobs", "/v1/cluster/complete"} {
		pad := strings.Repeat("0", 1<<20)
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(`{"pad":"`+pad+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		var ae apiError
		json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if resp.StatusCode/100 != 4 || !strings.Contains(ae.Error, "1 MiB limit") {
			t.Errorf("POST %s over the cap: %d %q, want a 4xx naming the 1 MiB limit", path, resp.StatusCode, ae.Error)
		}
	}
	if err := (&Client{Base: hs.URL}).Health(context.Background()); err != nil {
		t.Errorf("server unhealthy after an oversized body: %v", err)
	}
}

// TestClientRunThroughBisect: the client plugged into Options.Exec
// drives a saturation search; the search must match the in-process one
// bit for bit (the remote-execution contract for composite helpers).
func TestClientRunThroughBisect(t *testing.T) {
	t.Parallel()
	sat := func(c core.Config) (core.Result, error) {
		return core.Result{Saturated: c.Load >= 0.42, Throughput: c.Load, TotalCycles: 1000}, nil
	}
	spec := sweep.BisectSpec{
		At: func(load float64) core.Config {
			c := core.DefaultConfig()
			c.Load = load
			return c
		},
		Lo: 0.1, Hi: 1.0, Tol: 0.02,
	}
	want, err := sweep.Bisect(context.Background(), spec, sweep.Options{Runner: sat})
	if err != nil {
		t.Fatal(err)
	}
	_, c := testServer(t, t.TempDir(), ServerOptions{Runner: sat})
	got, err := sweep.Bisect(context.Background(), spec, sweep.Options{Exec: c.Run})
	if err != nil {
		t.Fatal(err)
	}
	if got.Lo != want.Lo || got.Hi != want.Hi || got.Converged != want.Converged || got.LoResult != want.LoResult {
		t.Fatalf("served search diverged:\nserved     %s\nin-process %s", got, want)
	}
}

// TestServerRetentionBound: the server keeps the retainJobs most recent
// terminal jobs and no more. Older IDs answer 404 saying the job expired
// (its points are stored; resubmit), which reads differently from an ID
// the server never issued.
func TestServerRetentionBound(t *testing.T) {
	t.Parallel()
	srv, c := testServer(t, t.TempDir(), ServerOptions{Runner: scripted})
	ctx := context.Background()
	const extra = 5
	for i := 0; i < retainJobs+extra; i++ { // the same grid each time: all but the first job are store hits
		if _, err := c.Run(ctx, testGrid(2), sweep.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	kept, window := len(srv.jobs), len(srv.retired)
	srv.mu.Unlock()
	if kept != retainJobs || window != retainJobs {
		t.Fatalf("%d jobs kept (%d in the window) after %d finished, want %d", kept, window, retainJobs+extra, retainJobs)
	}

	var ae *APIStatusError
	_, err := c.Status(ctx, "j000001")
	if !errors.As(err, &ae) || ae.Code != http.StatusNotFound || !strings.Contains(ae.Message, "expired") || !strings.Contains(ae.Message, "resubmit") {
		t.Errorf("evicted job: %v, want 404 saying it expired and to resubmit", err)
	}
	if _, err := c.Results(ctx, "j000001"); !errors.As(err, &ae) || ae.Code != http.StatusNotFound {
		t.Errorf("evicted job results: %v, want 404", err)
	}
	_, err = c.Status(ctx, "j999999")
	if !errors.As(err, &ae) || ae.Code != http.StatusNotFound || strings.Contains(ae.Message, "expired") {
		t.Errorf("never-issued job: %v, want a plain 404", err)
	}
	if st, err := c.Status(ctx, "j000006"); err != nil || st.State != JobDone {
		t.Errorf("oldest job inside the window: %+v, %v", st, err)
	}
}

// TestServerRetentionSparesLiveJobs: only terminal jobs enter the
// retention window, so a running job and one queued behind it outlive any
// number of jobs that finish around them.
func TestServerRetentionSparesLiveJobs(t *testing.T) {
	t.Parallel()
	g := newGate()
	defer g.open()
	srv, c := testServer(t, t.TempDir(), ServerOptions{Runner: g.run, QueueLimit: retainJobs + 8})
	ctx := context.Background()
	running, err := c.Submit(ctx, mustPoints(t, testGrid(1)))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, mustPoints(t, testGrid(2)[1:]))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < retainJobs+2; i++ { // queued, then cancelled: terminal at once
		st, err := c.Submit(ctx, mustPoints(t, testGrid(3)[2:]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Cancel(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st, ok := srv.Status(id); !ok || st.Terminal() {
			t.Errorf("live job %s after %d others finished: %+v, known=%v", id, retainJobs+2, st, ok)
		}
	}
}

// TestServerNonFiniteResult: a result holding a value a JSON number cannot
// say (a run no batch of which completed has an infinite confidence
// half-width) is a result like any other — served intact, stored, and
// served from the store on resubmission. A response body that is not a
// Result has no such form: it answers 500, never 200 over an empty body.
func TestServerNonFiniteResult(t *testing.T) {
	t.Parallel()
	grid := testGrid(3)
	result := func(cfg core.Config) core.Result {
		res, _ := scripted(cfg)
		if cfg.Seed == 2 {
			res.CI95 = math.Inf(1)
		}
		return res
	}
	var runs atomic.Int64
	_, c := testServer(t, t.TempDir(), ServerOptions{Runner: func(cfg core.Config) (core.Result, error) {
		runs.Add(1)
		return result(cfg), nil
	}})
	for pass := 0; pass < 2; pass++ {
		got, err := c.Run(context.Background(), grid, sweep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			if want := result(grid[i]); got[i].Err != nil || got[i].Result != want || got[i].Cached != (pass == 1) {
				t.Errorf("pass %d point %d: %+v cached=%v err=%v, want %+v", pass, i, got[i].Result, got[i].Cached, got[i].Err, want)
			}
		}
		if n := runs.Load(); n != 3 {
			t.Errorf("%d simulations after pass %d, want 3: one per point, none on resubmission", n, pass)
		}
	}
	st, err := c.StoreStats(context.Background())
	if err != nil || st.PutFailures != 0 || st.Entries != 3 {
		t.Errorf("store after a non-finite result: %+v err=%v", st, err)
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "NaN") {
		t.Errorf("unencodable response: %d %q, want 500 carrying the encoder's error", rec.Code, rec.Body.String())
	}
}

// TestServedWorkloadOptionsMatchInProcess: the options that change the
// workload or the fabric under it — bursty sources, QoS classes, a fault
// schedule, the reliability layer — reach the server's simulator. Real
// runs, served vs in-process, bit for bit; before the wire carried them
// the server simulated the plain config and answered under the full key.
func TestServedWorkloadOptionsMatchInProcess(t *testing.T) {
	t.Parallel()
	base := core.DefaultConfig()
	base.Dims = []int{8, 8}
	base.Warmup, base.Measure = 50, 400

	bursty := base
	bursty.Burst = &traffic.Burst{OnFrac: 0.3, MeanOn: 100}
	bursty.QoS = &core.QoSSpec{HiFrac: 0.2, HiVCs: 1}

	stormy := base
	stormy.Reliability = &core.Reliability{RTO: 512}
	var err error
	if stormy.Faults, err = fault.ParseSchedule(stormy.Mesh(), "27-28@300:900,r9@500"); err != nil {
		t.Fatal(err)
	}

	grid := []core.Config{base, bursty, stormy}
	_, c := testServer(t, t.TempDir(), ServerOptions{})
	got, err := c.Run(context.Background(), grid, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range grid {
		want, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Err != nil || got[i].Result != want {
			t.Errorf("point %d: served %+v (err=%v)\nin-process %+v", i, got[i].Result, got[i].Err, want)
		}
		if i > 0 && want == plain {
			t.Errorf("point %d: its options do not change the result; the test has no teeth", i)
		}
	}
}
