package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapses/internal/core"
	"lapses/internal/sweep"
)

// prompt is the bound a woken waiter must return within. Every client in
// this file paces itself at neverPoll, so a wait that ends within prompt
// was ended by the server, not by the client's own cadence.
const (
	prompt    = 2 * time.Second
	neverPoll = time.Minute
)

// requestLog counts requests by "METHOD path?query" prefix.
type requestLog struct {
	mu   sync.Mutex
	seen []string
}

func (l *requestLog) count(prefix string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.seen {
		if strings.HasPrefix(s, prefix) {
			n++
		}
	}
	return n
}

// awaitRequests blocks until n requests matching prefix have arrived: a
// held request is counted on arrival, so this is how a test knows a
// waiter has reached the server before it triggers the wake-up.
func (l *requestLog) awaitRequests(t *testing.T, prefix string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); l.count(prefix) < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests for %q never arrived", n, prefix)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldServer is testServer with a request log in front of the handler
// and a client that would poll once a minute if it had to.
func heldServer(t *testing.T, dir string, opt ServerOptions) (*Server, *Client, *requestLog) {
	t.Helper()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, opt)
	log := &requestLog{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		log.mu.Lock()
		log.seen = append(log.seen, r.Method+" "+r.URL.RequestURI())
		log.mu.Unlock()
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
		hs.Close()
	})
	return srv, &Client{Base: hs.URL, PollInterval: neverPoll}, log
}

// gate is a runner that blocks every point until open is called. Tests
// defer open, so the server's cleanup never drains a blocked executor.
type gate struct {
	once    sync.Once
	release chan struct{}
}

func newGate() *gate { return &gate{release: make(chan struct{})} }

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func (g *gate) run(c core.Config) (core.Result, error) {
	<-g.release
	return scripted(c)
}

type waitResult struct {
	st  JobStatus
	err error
	at  time.Time
}

func waitAsync(ctx context.Context, c *Client, id string) <-chan waitResult {
	ch := make(chan waitResult, 1)
	go func() {
		st, err := c.Wait(ctx, id)
		ch <- waitResult{st, err, time.Now()}
	}()
	return ch
}

func (r waitResult) mustBe(t *testing.T, state string, since time.Time) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("waiting: %v", r.err)
	}
	if r.st.State != state {
		t.Fatalf("the job ended %q, want %q", r.st.State, state)
	}
	if lag := r.at.Sub(since); lag > prompt {
		t.Fatalf("the waiter returned %v after the job turned %s; a held request returns at once", lag, state)
	}
}

// waiter is one way to park on a job: Wait, on a job the test submits,
// or Run, which submits the job itself and parks its results request.
// start submits grid to a fresh server and waits in the background; it
// returns the job's ID and the logged prefix of the held request.
type waiter struct {
	name  string
	start func(ctx context.Context, t *testing.T, srv *Server, c *Client, grid []core.Config) (id, held string, done <-chan waitResult)
}

var waiters = []waiter{
	{"Wait", func(ctx context.Context, t *testing.T, _ *Server, c *Client, grid []core.Config) (string, string, <-chan waitResult) {
		st, err := c.Submit(context.Background(), mustPoints(t, grid))
		if err != nil {
			t.Fatal(err)
		}
		return st.ID, "GET /v1/jobs/" + st.ID + "?wait_ms=", waitAsync(ctx, c, st.ID)
	}},
	{"Run", func(ctx context.Context, _ *testing.T, srv *Server, c *Client, grid []core.Config) (string, string, <-chan waitResult) {
		const id = "j000001" // a fresh server's first job
		ch := make(chan waitResult, 1)
		go func() {
			_, err := c.Run(ctx, grid, sweep.Options{})
			at := time.Now()
			st, _ := srv.Status(id)
			ch <- waitResult{st, err, at}
		}()
		return id, "GET /v1/jobs/" + id + "/results?wait_ms=", ch
	}},
}

// TestWaitHeldReturnsOnCompletion: Wait, and Run, must come back when
// execute finishes the job, on the one request each parked.
func TestWaitHeldReturnsOnCompletion(t *testing.T) {
	t.Parallel()
	for _, w := range waiters {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			g := newGate()
			defer g.open()
			srv, c, log := heldServer(t, t.TempDir(), ServerOptions{Runner: g.run})
			id, held, done := w.start(context.Background(), t, srv, c, testGrid(2))
			log.awaitRequests(t, held, 1)
			released := time.Now()
			g.open()
			(<-done).mustBe(t, JobDone, released)
			// Every GET on the job, held or not, status or results.
			if n := log.count("GET /v1/jobs/" + id); n != 1 {
				t.Errorf("%s made %d requests on the job, want the 1 the server held", w.name, n)
			}
		})
	}
}

// TestRunKeepsOneConnection: a Run of a stored grid is two requests, the
// submit and one held results request, and successive Runs share one
// connection although each results body is chunked (over the 2 KB
// net/http buffers before it commits to a Content-Length).
func TestRunKeepsOneConnection(t *testing.T) {
	t.Parallel()
	_, c, log := heldServer(t, t.TempDir(), ServerOptions{Runner: scripted})
	ctx := context.Background()
	// A figure grid's size: its results body is large enough that Decode
	// returns before the chunked terminator has arrived.
	grid := testGrid(65)
	if _, err := c.Run(ctx, grid, sweep.Options{}); err != nil { // stores the grid
		t.Fatal(err)
	}
	var dials, chunked atomic.Int64
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}}
	t.Cleanup(tr.CloseIdleConnections)
	c.HTTP = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := tr.RoundTrip(r)
		if err == nil && strings.HasSuffix(r.URL.Path, "/results") && resp.ContentLength < 0 {
			chunked.Add(1)
		}
		return resp, err
	})}
	before := log.count("")
	const runs = 20
	for i := 0; i < runs; i++ {
		outs, err := c.Run(ctx, grid, sweep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for j, o := range outs {
			if o.Err != nil || !o.Cached {
				t.Fatalf("run %d point %d: cached=%v err=%v", i, j, o.Cached, o.Err)
			}
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("%d Runs dialed %d connections, want 1", runs, n)
	}
	if n := chunked.Load(); n != runs {
		t.Errorf("%d of %d results bodies were chunked; grow the grid", n, runs)
	}
	log.mu.Lock()
	seen := log.seen[before:]
	log.mu.Unlock()
	if len(seen) != 2*runs {
		t.Fatalf("%d Runs made %d requests, want %d: %q", runs, len(seen), 2*runs, seen)
	}
	for i := 0; i < len(seen); i += 2 {
		if seen[i] != "POST /v1/jobs" || !strings.HasPrefix(seen[i+1], "GET /v1/jobs/") || !strings.Contains(seen[i+1], "/results?wait_ms=") {
			t.Fatalf("run %d requested %q, want the submit then a held results request", i/2, seen[i:i+2])
		}
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestWaitHeldReturnsOnQueuedCancel: DELETE on a queued job finishes it
// through the same path, so a waiter parked on it wakes too.
func TestWaitHeldReturnsOnQueuedCancel(t *testing.T) {
	t.Parallel()
	g := newGate()
	defer g.open()
	_, c, log := heldServer(t, t.TempDir(), ServerOptions{Runner: g.run})
	ctx := context.Background()
	if _, err := c.Submit(ctx, mustPoints(t, testGrid(1))); err != nil { // occupies the executor
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, mustPoints(t, testGrid(2)[1:]))
	if err != nil {
		t.Fatal(err)
	}
	done := waitAsync(ctx, c, queued.ID)
	log.awaitRequests(t, "GET /v1/jobs/"+queued.ID, 1)
	cancelled := time.Now()
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	(<-done).mustBe(t, JobCancelled, cancelled)
}

// TestStatusHoldElapses: a hold that runs out answers 200 with the
// non-terminal status, and not before the hold has passed.
func TestStatusHoldElapses(t *testing.T) {
	t.Parallel()
	g := newGate()
	defer g.open()
	_, c, _ := heldServer(t, t.TempDir(), ServerOptions{Runner: g.run})
	st, err := c.Submit(context.Background(), mustPoints(t, testGrid(1)))
	if err != nil {
		t.Fatal(err)
	}
	const hold = 40 * time.Millisecond
	asked := time.Now()
	got, err := c.status(context.Background(), st.ID, hold)
	if err != nil {
		t.Fatalf("elapsed hold: %v", err)
	}
	if got.Terminal() {
		t.Fatalf("blocked job reports %q", got.State)
	}
	if held := time.Since(asked); held < hold {
		t.Fatalf("status answered after %v, before its %v hold ran out", held, hold)
	}
}

// TestWaitCancelStillCancelsJob: abandoning a Wait, or a Run, whose
// request is parked server-side must still cancel the job there.
func TestWaitCancelStillCancelsJob(t *testing.T) {
	t.Parallel()
	for _, w := range waiters {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			g := newGate()
			defer g.open()
			srv, c, log := heldServer(t, t.TempDir(), ServerOptions{Runner: g.run, Workers: 1})
			ctx, cancel := context.WithCancel(context.Background())
			id, held, done := w.start(ctx, t, srv, c, testGrid(3))
			log.awaitRequests(t, held, 1)
			cancel()
			if r := <-done; r.err != context.Canceled {
				t.Fatalf("abandoned %s returned %v, want context.Canceled", w.name, r.err)
			}
			g.open() // the in-flight point drains; the rest never start
			fin := waitState(t, c, id, func(st JobStatus) bool { return st.Terminal() })
			if fin.State != JobCancelled {
				t.Fatalf("job of an abandoned %s ended %q, want cancelled", w.name, fin.State)
			}
		})
	}
}

// TestShutdownReleasesHeldRequests: a drain must not wait out parked
// requests. A status waiter and a claim, both held on a coordinator
// whose only point is leased out, return as Shutdown starts; the job ends
// interrupted.
func TestShutdownReleasesHeldRequests(t *testing.T) {
	t.Parallel()
	srv, c, log := heldServer(t, t.TempDir(), ServerOptions{
		Cluster: &ClusterOptions{LeaseTTL: 30 * time.Second},
	})
	ctx := context.Background()
	st, err := c.Submit(ctx, mustPoints(t, testGrid(1)))
	if err != nil {
		t.Fatal(err)
	}
	claimUntilGranted(t, c, "holder") // the queue is now empty
	claims := log.count("POST /v1/cluster/claim")

	statusDone := make(chan JobStatus, 1)
	go func() {
		got, _ := c.status(ctx, st.ID, maxHold)
		statusDone <- got
	}()
	claimDone := make(chan ClaimResponse, 1)
	go func() {
		got, _ := c.Claim(ctx, "parked", maxHold)
		claimDone <- got
	}()
	log.awaitRequests(t, "GET /v1/jobs/"+st.ID, 1)
	log.awaitRequests(t, "POST /v1/cluster/claim", claims+1)

	sctx, cancel := context.WithTimeout(ctx, prompt)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown with held requests: %v", err)
	}
	select {
	case got := <-claimDone:
		if got.Lease != "" || !got.Draining {
			t.Errorf("claim released by the drain: %+v, want an empty draining reply", got)
		}
	case <-time.After(prompt):
		t.Error("held claim still parked after Shutdown returned")
	}
	select {
	case <-statusDone:
	case <-time.After(prompt):
		t.Error("held status request still parked after Shutdown returned")
	}
	if fin, _ := srv.Status(st.ID); fin.State != JobInterrupted {
		t.Errorf("drained job is %q, want interrupted", fin.State)
	}
}

// TestHeldClaimGetsRequeuedUnit: a claim parked on an empty queue is
// granted the point a completion hands back unresolved, and the point an
// orphaned lease's expiry frees — each on the request already parked.
func TestHeldClaimGetsRequeuedUnit(t *testing.T) {
	t.Parallel()
	// parkThenFree leases the job's only point to "first", parks a claim by
	// "second" after delay, calls free, and wants that one claim granted.
	parkThenFree := func(t *testing.T, ttl, delay time.Duration, free func(c *Client, first ClaimResponse)) {
		_, c, log := heldServer(t, t.TempDir(), ServerOptions{
			Cluster: &ClusterOptions{LeaseTTL: ttl},
		})
		if _, err := c.Submit(context.Background(), mustPoints(t, testGrid(1))); err != nil {
			t.Fatal(err)
		}
		first := claimUntilGranted(t, c, "first")
		claims := log.count("POST /v1/cluster/claim")
		time.Sleep(delay)
		granted := make(chan ClaimResponse, 1)
		go func() {
			got, _ := c.Claim(context.Background(), "second", ttl)
			granted <- got
		}()
		log.awaitRequests(t, "POST /v1/cluster/claim", claims+1)
		free(c, first)
		got := <-granted
		if got.Lease == "" || got.Attempt != 2 {
			t.Fatalf("parked claim got %+v, want the requeued point on its second attempt", got)
		}
	}
	t.Run("transient", func(t *testing.T) {
		t.Parallel()
		parkThenFree(t, 30*time.Second, 0, func(c *Client, first ClaimResponse) {
			// A draining worker that never started the point reports
			// nothing.
			if _, err := c.Complete(context.Background(), first.Lease, first.Job, "first", PointOutcome{}); err != nil {
				t.Error(err)
			}
		})
	})
	t.Run("orphan", func(t *testing.T) {
		t.Parallel()
		// "first" goes silent. Its lease expires one TTL after the grant
		// and is found within TTL/4 more; a hold lasts at most one TTL, so
		// the second claim parks half a TTL in to still be held by then.
		const ttl = 400 * time.Millisecond
		parkThenFree(t, ttl, ttl/2, func(*Client, ClaimResponse) {})
	})
}

// TestParkedWorkerStartsJobAtOnce: a job submitted while an idle worker
// is parked in a held claim starts without waiting out any idle
// interval — the worker's is a minute here.
func TestParkedWorkerStartsJobAtOnce(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, c, log := heldServer(t, dir, ServerOptions{
		Cluster: &ClusterOptions{LeaseTTL: 30 * time.Second},
	})
	ws, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{ID: "idle", Coordinators: []string{c.Base}, Store: ws, Workers: 1, Runner: scripted, IdleWait: neverPoll}
	wctx, stop := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() { defer close(exited); w.Run(wctx) }()
	t.Cleanup(func() { stop(); <-exited })
	log.awaitRequests(t, "POST /v1/cluster/claim", 1)

	ctx, cancel := context.WithTimeout(context.Background(), prompt)
	defer cancel()
	outs, err := c.Run(ctx, testGrid(3), sweep.Options{})
	if err != nil {
		t.Fatalf("job submitted to a parked worker: %v", err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("point %d: %v", i, o.Err)
		}
	}
}

// unheldStub is a server that ignores wait_ms, as one predating it does:
// job j1 answers its status and results requests at once, running (409
// on results) until runFor has passed, for ever when runFor is 0. It
// counts those requests and records a DELETE of j1.
func unheldStub(t *testing.T, runFor time.Duration) (base string, polls *atomic.Int64, cancelled *atomic.Bool) {
	polls, cancelled = new(atomic.Int64), new(atomic.Bool)
	start := time.Now()
	done := func() bool { return runFor > 0 && time.Since(start) >= runFor }
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, JobStatus{ID: "j1", State: JobQueued, Total: 1})
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		st := JobStatus{ID: "j1", State: JobRunning, Total: 1}
		if done() {
			st.State = JobDone
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/j1/results", func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		if !done() {
			writeJSON(w, http.StatusConflict, apiError{Error: "job j1 is running"})
			return
		}
		res, _ := scripted(testGrid(1)[0])
		writeJSON(w, http.StatusOK, JobResults{Status: JobStatus{ID: "j1", State: JobDone, Total: 1, Completed: 1, Simulated: 1}, Outcomes: []PointOutcome{{Result: &res}}})
	})
	mux.HandleFunc("DELETE /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		cancelled.Store(true)
		writeJSON(w, http.StatusOK, JobStatus{ID: "j1", State: JobCancelled, Total: 1})
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs.URL, polls, cancelled
}

// unheldWaiters wait out the stub's job j1 through Wait and through Run.
var unheldWaiters = []struct {
	name string
	wait func(ctx context.Context, c *Client) error
}{
	{"Wait", func(ctx context.Context, c *Client) error {
		st, err := c.Wait(ctx, "j1")
		if err == nil && st.State != JobDone {
			err = fmt.Errorf("job finished in state %q", st.State)
		}
		return err
	}},
	{"Run", func(ctx context.Context, c *Client) error {
		_, err := c.Run(ctx, testGrid(1), sweep.Options{})
		return err
	}},
}

// TestWaitPacesUnheldServer: against a server that ignores wait_ms and
// answers at once, Wait and Run still terminate and space their requests
// at least PollInterval apart — the one thing PollInterval still means.
func TestWaitPacesUnheldServer(t *testing.T) {
	t.Parallel()
	const interval = 20 * time.Millisecond
	const runFor = 200 * time.Millisecond
	for _, w := range unheldWaiters {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			start := time.Now()
			base, polls, _ := unheldStub(t, runFor)
			c := &Client{Base: base, PollInterval: interval}
			if err := w.wait(context.Background(), c); err != nil {
				t.Fatal(err)
			}
			took := time.Since(start)
			n := polls.Load()
			if n < 2 {
				t.Fatalf("%d polls: the job cannot have been observed running", n)
			}
			if floor := time.Duration(n-1) * interval; took < floor {
				t.Errorf("%d requests in %v: closer together than the %v PollInterval", n, took, interval)
			}
		})
	}
}

// TestWaitExpiryCancelsUnheldJob: when ctx expires while a server that
// does not hold keeps answering "running", Wait and Run cancel the job
// there before returning.
func TestWaitExpiryCancelsUnheldJob(t *testing.T) {
	t.Parallel()
	for _, w := range unheldWaiters {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			base, polls, cancelled := unheldStub(t, 0)
			c := &Client{Base: base, PollInterval: 20 * time.Millisecond}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			if err := w.wait(ctx, c); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s past its deadline returned %v, want context.DeadlineExceeded", w.name, err)
			}
			if n := polls.Load(); n < 2 {
				t.Errorf("%d polls before the deadline, want the job asked after more than once", n)
			}
			if !cancelled.Load() {
				t.Errorf("%s returned on its deadline without cancelling the job", w.name)
			}
		})
	}
}
