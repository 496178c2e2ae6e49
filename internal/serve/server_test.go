package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// TestServerRetriesTransient: a point its worker hands back unresolved
// is requeued and, claimed again inside the attempt budget, succeeds
// without failing the job; the requeue is visible in the job status.
// Claims and completions are driven by hand.
func TestServerRetriesTransient(t *testing.T) {
	t.Parallel()
	_, c := testServer(t, t.TempDir(), ServerOptions{
		Cluster:     &ClusterOptions{LeaseTTL: 30 * time.Second},
		MaxAttempts: 2,
	})
	ctx := context.Background()
	grid := testGrid(1)
	st, err := c.Submit(ctx, mustPoints(t, grid))
	if err != nil {
		t.Fatal(err)
	}
	first := claimUntilGranted(t, c, "w")
	if first.Attempt != 1 {
		t.Fatalf("first grant %+v, want attempt 1", first)
	}
	if _, err := c.Complete(ctx, first.Lease, first.Job, "w", PointOutcome{}); err != nil {
		t.Fatal(err)
	}
	second := claimUntilGranted(t, c, "w")
	if second.Point == nil || second.Index != 0 || second.Attempt != 2 {
		t.Fatalf("second grant %+v, want point 0 on attempt 2", second)
	}
	want, _ := scripted(grid[0])
	if _, err := c.Complete(ctx, second.Lease, second.Job, "w", PointOutcome{Result: &want}); err != nil {
		t.Fatal(err)
	}

	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone || final.Failed != 0 || final.Retries != 1 {
		t.Fatalf("job %+v, want done after 1 retry", final)
	}
	res, err := c.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outcomes[0]; got.Error != "" || got.Result == nil || *got.Result != want {
		t.Fatalf("retried point: %+v", got)
	}
	cs, err := c.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ExhaustedUnits != 0 || cs.TransientRequeues != 1 {
		t.Fatalf("cluster stats %+v, want 1 hand-back and no exhausted unit", cs)
	}
}

// TestServerRetryBudgetExhausted: a worker that hands its point back
// unresolved gets it requeued, at most MaxAttempts claims in all; after
// that the point fails naming the budget, while the other point
// succeeds. Claims and completions are driven by hand.
func TestServerRetryBudgetExhausted(t *testing.T) {
	t.Parallel()
	_, c := testServer(t, t.TempDir(), ServerOptions{
		Cluster:     &ClusterOptions{LeaseTTL: 30 * time.Second},
		MaxAttempts: 2,
	})
	ctx := context.Background()
	grid := testGrid(2)
	st, err := c.Submit(ctx, mustPoints(t, grid))
	if err != nil {
		t.Fatal(err)
	}
	healthy := claimUntilGranted(t, c, "w")
	if healthy.Point == nil || healthy.Index != 0 {
		t.Fatalf("first grant %+v, want point 0", healthy)
	}
	want, _ := scripted(grid[0])
	if _, err := c.Complete(ctx, healthy.Lease, healthy.Job, "w", PointOutcome{Result: &want}); err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		g := claimUntilGranted(t, c, "w")
		if g.Point == nil || g.Index != 1 || g.Attempt != attempt {
			t.Fatalf("grant %+v, want point 1 on attempt %d", g, attempt)
		}
		if _, err := c.Complete(ctx, g.Lease, g.Job, "w", PointOutcome{}); err != nil {
			t.Fatal(err)
		}
	}

	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobFailed || final.Retries != 1 {
		t.Fatalf("job %+v, want failed after 1 retry", final)
	}
	res, err := c.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outcomes[0]; got.Error != "" || got.Result == nil || *got.Result != want {
		t.Fatalf("healthy point: %+v", got)
	}
	if msg := res.Outcomes[1].Error; !strings.Contains(msg, "giving up after 2 lease attempts") {
		t.Fatalf("handed-back point: %q, want the attempt budget named", msg)
	}
	cs, err := c.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ExhaustedUnits != 1 || cs.TransientRequeues != 2 {
		t.Fatalf("cluster stats %+v, want 1 exhausted unit of 2 hand-backs", cs)
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

// TestServerJobDeadline: a job exceeding the server's deadline
// (ServerOptions.JobTimeout, lapses-serve -job-timeout) stops at the next
// point boundary (in-flight points drain — core.Run is not
// interruptible) and fails with an error counting the points it
// completed; finished points stay durable.
func TestServerJobDeadline(t *testing.T) {
	t.Parallel()
	runner := func(cfg core.Config) (core.Result, error) {
		if cfg.Seed >= 2 {
			time.Sleep(400 * time.Millisecond) // deadline fires mid-point
		}
		return scripted(cfg)
	}
	_, c := testServer(t, t.TempDir(), ServerOptions{Runner: runner, Workers: 1, JobTimeout: 150 * time.Millisecond})

	st, err := c.Submit(context.Background(), mustPoints(t, testGrid(3)))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, c, st.ID, func(st JobStatus) bool { return st.Terminal() })
	if fin.State != JobFailed || !strings.Contains(fin.Error, "deadline") || !strings.Contains(fin.Error, "(2 of 3 points completed)") {
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
	// A point that leaves out a required member — one without
	// omitempty — or sends null for it is refused naming the member, not
	// run as the zero value. The same point with every member runs.
	full := mustPoints(t, testGrid(1))[0]
	for _, name := range requiredMembers(t) {
		for _, null := range []bool{false, true} {
			body := jobBody(t, withMember(t, full, name, null))
			err := c.do(ctx, http.MethodPost, "/v1/jobs", body, nil)
			if ae, ok := err.(*APIStatusError); !ok || ae.Code != http.StatusBadRequest || !strings.Contains(ae.Message, `lacks required member "`+name+`"`) {
				t.Errorf("member %q left out (null: %v): err=%v", name, null, err)
			}
		}
	}
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", jobBody(t, withMember(t, full, "", false)), nil); err != nil {
		t.Errorf("a point with every member: %v", err)
	}
	// A point core.Config.Validate rejects is refused at submission, not
	// accepted and failed later.
	bad = mustPoints(t, testGrid(1))
	bad[0].MsgLen = ref(0)
	err = c.do(ctx, http.MethodPost, "/v1/jobs", jobRequest{Points: bad}, nil)
	if ae, ok := err.(*APIStatusError); !ok || ae.Code != http.StatusBadRequest || !strings.Contains(ae.Message, "MsgLen") {
		t.Errorf("msg_len 0: err=%v", err)
	}
	// So is a pattern the shape cannot carry, which would panic mid-run.
	bad = mustPoints(t, testGrid(1))
	bad[0].Dims, bad[0].Pattern = []int{8, 4}, "transpose"
	err = c.do(ctx, http.MethodPost, "/v1/jobs", jobRequest{Points: bad}, nil)
	if ae, ok := err.(*APIStatusError); !ok || ae.Code != http.StatusBadRequest || !strings.Contains(ae.Message, "Pattern") {
		t.Errorf("transpose on 8x4: err=%v", err)
	}
	// So is a load no node can inject, which would wedge a worker slot in
	// the injector for good.
	bad = mustPoints(t, testGrid(1))
	bad[0].Load = ref(1e300)
	err = c.do(ctx, http.MethodPost, "/v1/jobs", jobRequest{Points: bad}, nil)
	if ae, ok := err.(*APIStatusError); !ok || ae.Code != http.StatusBadRequest || !strings.Contains(ae.Message, "Load") {
		t.Errorf("load 1e300: err=%v", err)
	}
	// A body is one JSON value: anything after it but whitespace is
	// refused, a second job included.
	job, err := json.Marshal(jobRequest{Points: mustPoints(t, testGrid(1))})
	if err != nil {
		t.Fatal(err)
	}
	for body, want := range map[string]int{
		string(job) + "\n":        http.StatusAccepted,
		string(job) + "garbage":   http.StatusBadRequest,
		string(job) + string(job): http.StatusBadRequest,
	} {
		resp, err := http.Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST /v1/jobs with %.24q after a job: %d, want %d", body[len(job):], resp.StatusCode, want)
		}
	}
	if _, err := c.Status(ctx, "j999999"); err == nil {
		t.Error("unknown job id accepted")
	}
	if _, err := c.Results(ctx, "j999999"); err == nil {
		t.Error("unknown job results accepted")
	}
}

// requiredMembers lists Point's required members by wire name: every
// member whose tag has no omitempty.
func requiredMembers(t *testing.T) []string {
	t.Helper()
	var names []string
	pt := reflect.TypeOf(Point{})
	for i := 0; i < pt.NumField(); i++ {
		name, opts, _ := strings.Cut(pt.Field(i).Tag.Get("json"), ",")
		if opts != "omitempty" {
			names = append(names, name)
		}
	}
	if len(names) != 11 {
		t.Fatalf("%d required members %v, want 11", len(names), names)
	}
	return names
}

// withMember is p's JSON with member name left out, or sent as null;
// name "" leaves p whole.
func withMember(t *testing.T, p Point, name string, null bool) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]json.RawMessage{}
	if err := json.Unmarshal(raw, &members); err != nil {
		t.Fatal(err)
	}
	if _, ok := members[name]; name != "" && !ok {
		t.Fatalf("no member %q in %s", name, raw)
	}
	if delete(members, name); null {
		members[name] = json.RawMessage("null")
	}
	out, err := json.Marshal(members)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// jobBody is a submission of the one point JSON p.
func jobBody(t *testing.T, p json.RawMessage) json.RawMessage {
	t.Helper()
	body, err := json.Marshal(map[string][]json.RawMessage{"points": {p}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServerRefusesUnknownMembers: a job with one member the server does
// not read, at any depth, is refused with 400 naming it — never run as if
// the member were absent. The cases are misspellings (which the parent
// answered as the default setting: PROUD for a misspelled lookahead) and
// retired inputs: the per-job deadline, the second damage field, the
// cut-through switch, the per-run parallelism axis, the adaptive tier's
// budget object and its tolerance (the tier is gone), the router geometry
// fixed at Table 2 or derived from the algorithm (escape VCs, output
// depth, link delay, VCs, input buffer depth), the reliability and QoS
// parameter objects, now a switch and a fraction, and the latency guard,
// the kernel's constant, each refused at the outermost member the server
// cannot read.
func TestServerRefusesUnknownMembers(t *testing.T) {
	t.Parallel()
	_, c := testServer(t, t.TempDir(), ServerOptions{Runner: scripted})
	valid, err := json.Marshal(jobRequest{Points: mustPoints(t, testGrid(1))})
	if err != nil {
		t.Fatal(err)
	}
	post := func(t *testing.T, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ae apiError
		json.NewDecoder(resp.Body).Decode(&ae)
		return resp.StatusCode, ae.Error
	}
	if code, msg := post(t, valid); code != http.StatusAccepted {
		t.Fatalf("the unmodified job: %d %q, want 202", code, msg)
	}
	for _, tc := range []struct {
		name   string // the member the refusal must name
		mutate func(job, point map[string]any)
	}{
		{"look_ahead", func(_, p map[string]any) { p["look_ahead"] = true }},
		{"auto", func(_, p map[string]any) { p["auto"] = map[string]any{"max_mesages": 5000} }},
		{"reliability", func(_, p map[string]any) { p["reliability"] = map[string]any{"rto": 512} }},
		{"mean_onn", func(_, p map[string]any) { p["burst"] = map[string]any{"on_frac": 0.3, "mean_onn": 100} }},
		{"timeout_ms", func(j, _ map[string]any) { j["timeout_ms"] = 1000 }},
		{"schedule", func(_, p map[string]any) { p["schedule"] = "12-13@100:200" }},
		{"cut_through", func(_, p map[string]any) { p["cut_through"] = true }},
		{"shards", func(_, p map[string]any) { p["shards"] = 4 }},
		{"escape_vcs", func(_, p map[string]any) { p["escape_vcs"] = 1 }},
		{"out_depth", func(_, p map[string]any) { p["out_depth"] = 4 }},
		{"link_delay", func(_, p map[string]any) { p["link_delay"] = 1 }},
		{"vcs", func(_, p map[string]any) { p["vcs"] = 4 }},
		{"buf_depth", func(_, p map[string]any) { p["buf_depth"] = 20 }},
		{"qos", func(_, p map[string]any) { p["qos"] = map[string]any{"hi_frac": 0.2} }},
		{"sat_latency", func(_, p map[string]any) { p["sat_latency"] = 5000 }},
		{"auto_tol", func(_, p map[string]any) { p["auto_tol"] = 0.03 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var job map[string]any
			if err := json.Unmarshal(valid, &job); err != nil {
				t.Fatal(err)
			}
			tc.mutate(job, job["points"].([]any)[0].(map[string]any))
			body, err := json.Marshal(job)
			if err != nil {
				t.Fatal(err)
			}
			if code, msg := post(t, body); code != http.StatusBadRequest || !strings.Contains(msg, `"`+tc.name+`"`) {
				t.Errorf("%s: %d %q, want 400 naming the member", body, code, msg)
			}
		})
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
	// j6 and j000006x parse as the live j000006, but were never issued.
	for _, id := range []string{"j999999", "j6", "j000006x"} {
		_, err = c.Status(ctx, id)
		if !errors.As(err, &ae) || ae.Code != http.StatusNotFound || strings.Contains(ae.Message, "expired") {
			t.Errorf("never-issued job %s: %v, want a plain 404", id, err)
		}
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

// TestResultsBody: the results route writes, byte for byte, what
// encodeJSON(JobResults{...}) writes for the same outcomes: store hits,
// simulated points, a failed point, non-finite results and a repeated
// stored point, read from the store once, in one job; a
// job interrupted mid-grid; and one interrupted while queued, none of
// whose points executed. A hit's result is the stored payload verbatim.
func TestResultsBody(t *testing.T) {
	t.Parallel()
	grid := testGrid(6)
	result := func(cfg core.Config) core.Result {
		res, _ := scripted(cfg)
		if cfg.Seed == 2 || cfg.Seed == 5 {
			res.CI95 = math.Inf(1)
		}
		return res
	}
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range grid[:2] {
		if _, _, err := store.Do(context.Background(), cfg, func(c core.Config) (core.Result, error) { return result(c), nil }); err != nil {
			t.Fatal(err)
		}
	}
	more := testGrid(9)
	blocker, unrun := more[7], more[8]
	running, release := make(chan struct{}), make(chan struct{})
	srv, c := testServer(t, dir, ServerOptions{Workers: 1, Runner: func(cfg core.Config) (core.Result, error) {
		switch cfg.Seed {
		case 3:
			return core.Result{}, errors.New("boom <3>")
		case blocker.Seed:
			close(running)
			<-release
		}
		return result(cfg), nil
	}})
	ctx := context.Background()
	body := func(id string) []byte {
		t.Helper()
		resp, err := http.Get(c.Base + "/v1/jobs/" + id + "/results")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET results of %s: %d %s (err=%v)", id, resp.StatusCode, b, err)
		}
		return b
	}
	same := func(id string, got []byte, want JobResults) {
		t.Helper()
		if w, err := encodeJSON(want); err != nil || !bytes.Equal(got, w) {
			t.Errorf("job %s results body:\n got %s\nwant %s (err=%v)", id, got, w, err)
		}
	}

	// The mixed job ends on a repeat of a stored point: the server reads a
	// key once per job, however many points share it.
	mixedGrid := append(grid[:len(grid):len(grid)], grid[1])
	hits := []int{0, 1, len(grid)}
	before, err := c.StoreStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := c.Submit(ctx, mustPoints(t, mixedGrid))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, mixed.ID)
	if err != nil || st.State != JobFailed || st.Cached != 3 || st.Simulated != 3 || st.Failed != 1 {
		t.Fatalf("mixed job: %+v err=%v, want failed with 3 cached, 3 simulated, 1 failed", st, err)
	}
	if after, err := c.StoreStats(ctx); err != nil || after.Hits-before.Hits != 2 {
		t.Errorf("mixed job: %d store hits (err=%v), want one per distinct stored key: 2", after.Hits-before.Hits, err)
	}
	want := JobResults{Status: st, Outcomes: make([]PointOutcome, len(mixedGrid))}
	for i, cfg := range mixedGrid {
		res := result(cfg)
		want.Outcomes[i] = PointOutcome{Result: &res, Cached: slices.Contains(hits, i)}
	}
	want.Outcomes[2] = PointOutcome{Error: "boom <3>"}
	got := body(mixed.ID)
	same(mixed.ID, got, want)
	if res, err := c.Results(ctx, mixed.ID); err != nil || !reflect.DeepEqual(res, want) {
		t.Errorf("the client reads %+v (err=%v), want %+v", res, err, want)
	}
	var raw struct {
		Outcomes []struct {
			Result json.RawMessage `json:"result"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(got, &raw); err != nil {
		t.Fatal(err)
	}
	for _, i := range hits {
		entry, err := os.ReadFile(filepath.Join(dir, versionDir, objName(mixedGrid[i].Key())))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, payload, err := parseEntry(entry); err != nil || !bytes.Equal(raw.Outcomes[i].Result, payload) {
			t.Errorf("hit %d serves %s, want the stored payload %s (err=%v)", i, raw.Outcomes[i].Result, payload, err)
		}
	}

	// A job whose stored first point is a hit blocks the only slot on its
	// second while a second job waits in the queue; the drain interrupts
	// both, before the first job's third point is claimed.
	cut, err := c.Submit(ctx, mustPoints(t, []core.Config{grid[3], blocker, unrun}))
	if err != nil {
		t.Fatal(err)
	}
	<-running
	queued, err := c.Submit(ctx, mustPoints(t, grid[:3]))
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(ctx) }()
	for c.Health(ctx) == nil { // the drain has begun once healthz answers 503
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if st, _ = srv.Status(cut.ID); st.State != JobInterrupted {
		t.Fatalf("blocked job: %+v, want interrupted", st)
	}
	want = JobResults{Status: st, Outcomes: make([]PointOutcome, 3)}
	for i, cfg := range []core.Config{grid[3], blocker} {
		res := result(cfg)
		want.Outcomes[i] = PointOutcome{Result: &res, Cached: i == 0}
	}
	want.Outcomes[2] = PointOutcome{Error: context.Canceled.Error()}
	same(cut.ID, body(cut.ID), want)
	if st, _ = srv.Status(queued.ID); st.State != JobInterrupted || st.Completed != 0 {
		t.Fatalf("queued job: %+v, want interrupted with nothing completed", st)
	}
	want = JobResults{Status: st, Outcomes: make([]PointOutcome, 3)}
	for i := range want.Outcomes {
		want.Outcomes[i] = PointOutcome{Error: "point not executed: job interrupted"}
	}
	same(queued.ID, body(queued.ID), want)
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
	bursty.QoS = 0.2

	stormy := base
	stormy.Reliability = true
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
