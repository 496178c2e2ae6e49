package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"lapses/internal/core"
)

// newEpoch mints the coordinator's per-process incarnation token.
func newEpoch() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock: uniqueness across incarnations is all
		// that is needed, not unpredictability.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Job states. A job is terminal in done, failed, cancelled or
// interrupted; interrupted means a shutdown drained it mid-grid —
// completed points are durable in the store, so resubmitting the same
// grid resumes where it left off.
const (
	JobQueued      = "queued"
	JobRunning     = "running"
	JobDone        = "done"
	JobFailed      = "failed"
	JobCancelled   = "cancelled"
	JobInterrupted = "interrupted"
)

const (
	// maxHold caps how long one request may be held server-side
	// (wait_ms on GET /v1/jobs/{id}, GET /v1/jobs/{id}/results and POST
	// /v1/cluster/claim): long enough that a waiter costs a request every
	// half minute, short enough to pass through proxies and
	// idle-connection reapers.
	maxHold = 30 * time.Second
	// retainJobs is how many terminal jobs stay queryable. A finished job
	// pins its grid and outcomes; the oldest beyond this many are
	// forgotten and answer 404 — their points stay in the store, so a
	// resubmission is all hits.
	retainJobs = 64
	// maxBody caps a request body (a 65-point job and its results are
	// ~51 KB on the wire), so no client can exhaust the store's process.
	maxBody = 64 << 20
)

// ServerOptions configure a Server.
type ServerOptions struct {
	// Workers is a standalone server's in-process Worker's Workers: how
	// many points, each its own lease, it runs at once (<= 0:
	// GOMAXPROCS); a coordinator runs no Worker.
	Workers int
	// QueueLimit bounds how many jobs may wait behind the running one;
	// submissions beyond it are refused with 429 and a Retry-After
	// header rather than queued without bound (default 16).
	QueueLimit int
	// MaxAttempts is how many times a point is claimed before it fails
	// (default 3; 1: a point is leased once). A point is claimed again
	// only when its lease expired or its worker handed it back
	// unresolved.
	MaxAttempts int
	// JobTimeout is every job's deadline, from when it starts running
	// (0: none).
	JobTimeout time.Duration
	// Runner replaces core.Run for every point — the test seam for
	// scripted results, injected failures and panics, and blocking points.
	Runner func(core.Config) (core.Result, error)
	// Cluster, when non-nil, makes this server a cluster coordinator:
	// jobs are leased to Worker instances over HTTP instead of to the
	// server's in-process Worker. See ClusterOptions.
	Cluster *ClusterOptions
}

func (o ServerOptions) normalize() ServerOptions {
	if o.QueueLimit < 1 {
		o.QueueLimit = 16
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 3
	}
	return o
}

// job is one submitted grid, its lifecycle and, once it runs, its lease
// state (lease.go). All mutable fields are guarded by srv.mu.
type job struct {
	srv  *Server
	id   string
	grid []core.Config

	state  string
	done   chan struct{} // closed by finishLocked, the only way a job turns terminal
	reason string        // terminal state a canceller chose before cancelling the ctx
	cancel context.CancelFunc
	errMsg string
	// outs accumulate in grid order as points resolve, one per point
	// once the job runs; nil if it never started.
	outs     []outcome
	progress JobStatus // points recorded, leases requeued

	// token is the job's cluster-wide identity: the job ID qualified by
	// the coordinator's per-process epoch. Lease IDs are minted under it
	// and workers echo it back in completions, so grants from a previous
	// coordinator incarnation (job IDs restart from j000001 after a
	// restart) can never collide with — or be merged into — a fresh job.
	token     string
	pending   []*workUnit          // points waiting to be claimed
	active    map[string]*workUnit // points out on a lease, by lease ID
	nextLease int64
	stopped   bool // no more leasing: the job's context ended
	// finished closes once every point is resolved or the job is stopped
	// with no lease out.
	finished chan struct{}
	settled  bool
}

// Server executes grid jobs one at a time from a bounded queue, leasing
// each grid's points to workers that simulate them with the Store as the
// cache layer, so each unique point simulates once ever and completed
// points survive crashes. See the package comment for the full contract.
type Server struct {
	store   *Store
	opt     ServerOptions
	lease   ClusterOptions // normalized lease contract, in either mode
	handler http.Handler

	mu       sync.Mutex
	jobs     map[string]*job
	retired  []string // terminal job IDs, oldest first, at most retainJobs
	nextID   int64
	queue    chan *job
	closed   bool
	draining chan struct{}
	execDone chan struct{}

	// stopSlots cancels the in-process Worker (a coordinator has none);
	// slotsDone closes once that happened and the Worker's Run returned.
	stopSlots context.CancelFunc
	slotsDone chan struct{}

	// Lease state: the running job (nil between jobs), the lifetime
	// counters every job counts into as it goes, and last-seen worker
	// identities. epoch is a random per-process token baked into every
	// lease ID and claim grant, so grants from a previous coordinator
	// incarnation (whose job IDs restart from j000001) can never collide
	// with fresh leases.
	epoch       string
	cluster     *job
	ctot        ClusterStats
	workersSeen map[string]time.Time
	// work is what held claims park on: closed and replaced (under mu)
	// whenever a point may have become claimable or the server drains.
	work chan struct{}
}

// NewServer starts a server executing jobs against store. Call Shutdown
// to drain it.
func NewServer(store *Store, opt ServerOptions) *Server {
	s := &Server{
		store:       store,
		opt:         opt.normalize(),
		epoch:       newEpoch(),
		jobs:        map[string]*job{},
		draining:    make(chan struct{}),
		execDone:    make(chan struct{}),
		slotsDone:   make(chan struct{}),
		workersSeen: map[string]time.Time{},
		work:        make(chan struct{}),
	}
	if opt.Cluster != nil {
		s.lease = *opt.Cluster
	}
	s.lease = s.lease.normalize()
	s.queue = make(chan *job, s.opt.QueueLimit)
	s.handler = s.routes(maxBody)
	s.startSlots()
	go s.runExecutor()
	return s
}

// routes builds the HTTP API, refusing request bodies over limit bytes.
func (s *Server) routes(limit int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/store", s.handleStore)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/cluster/claim", s.handleClaim)
	mux.HandleFunc("POST /v1/cluster/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/cluster/complete", s.handleComplete)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	return http.MaxBytesHandler(mux, limit)
}

// startSlots starts a standalone server's one Worker, which claims by
// function call and shares the server's Store; its single-flight makes
// a repeat of an in-flight point a hit. On a coordinator slotsDone
// closes as soon as Shutdown starts.
func (s *Server) startSlots() {
	ctx, stop := context.WithCancel(context.Background())
	s.stopSlots = stop
	go func() {
		if s.opt.Cluster == nil {
			w := &Worker{ID: "local", Store: s.store, Workers: s.opt.Workers, Runner: s.opt.Runner, local: inProcess{s}}
			w.Run(ctx) // returns once Shutdown cancels ctx and every lease reported
		}
		<-ctx.Done()
		close(s.slotsDone)
	}()
}

// Mode reports how this server executes jobs: "coordinator" when
// cluster options are set, "standalone" otherwise.
func (s *Server) Mode() string {
	if s.opt.Cluster != nil {
		return "coordinator"
	}
	return "standalone"
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown drains the server gracefully: no new submissions are
// accepted, the in-process Worker's in-flight points finish (no new
// points start) and their durable writes complete, queued jobs are
// marked interrupted, and the executor and the Worker exit. Jobs cut
// short are resumable by resubmission — their completed points are
// served from the store. ctx bounds how long to wait for the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.draining)
		for _, jb := range s.jobs {
			if jb.state == JobRunning && jb.cancel != nil {
				jb.reason = JobInterrupted
				jb.cancel()
			}
		}
		close(s.queue) // all submitters check closed under mu before sending
		s.wakeClaimsLocked()
		s.stopSlots()
	}
	s.mu.Unlock()
	for _, done := range []chan struct{}{s.slotsDone, s.execDone} {
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("serve: shutdown: %w", ctx.Err())
		}
	}
	return nil
}

// runExecutor is the single job-execution loop.
func (s *Server) runExecutor() {
	defer close(s.execDone)
	for jb := range s.queue {
		s.execute(jb)
	}
}

// execute runs one job to a terminal state.
func (s *Server) execute(jb *job) {
	s.mu.Lock()
	if jb.state != JobQueued {
		// Cancelled while queued.
		s.mu.Unlock()
		return
	}
	if s.closed {
		s.finishLocked(jb, JobInterrupted, "")
		s.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(context.Background())
	if s.opt.JobTimeout > 0 {
		jctx, cancel = context.WithTimeout(context.Background(), s.opt.JobTimeout)
	}
	jb.state = JobRunning
	jb.cancel = cancel
	s.mu.Unlock()
	defer cancel()

	runErr := s.runClustered(jctx, jb)

	s.mu.Lock()
	defer s.mu.Unlock()
	jb.cancel = nil
	st := jb.status()
	switch {
	case runErr == nil && st.Failed == 0:
		s.finishLocked(jb, JobDone, "")
	case runErr == nil:
		s.finishLocked(jb, JobFailed, firstFailure(jb.grid, jb.outs, st.Failed))
	case jb.reason != "":
		// A canceller (DELETE, or Shutdown) chose the terminal state
		// before cancelling the context.
		s.finishLocked(jb, jb.reason, "")
	case jctx.Err() == context.DeadlineExceeded:
		s.finishLocked(jb, JobFailed, fmt.Sprintf("job deadline exceeded after %s (%d of %d points completed)", s.opt.JobTimeout, st.Completed, len(jb.grid)))
	default:
		s.finishLocked(jb, JobFailed, runErr.Error())
	}
}

// finishLocked makes jb terminal (mu held): it records the state, wakes
// every status request held on the job, and admits it to the retention
// window, forgetting the oldest terminal job beyond retainJobs. Queued
// and running jobs are never in the window, so never forgotten.
func (s *Server) finishLocked(jb *job, state, errMsg string) {
	jb.state, jb.errMsg = state, errMsg
	close(jb.done)
	s.retired = append(s.retired, jb.id)
	if len(s.retired) > retainJobs {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

// firstFailure summarizes a partially failed grid by its first failing
// point's config key.
func firstFailure(grid []core.Config, outs []outcome, failed int) string {
	for i, o := range outs {
		if o.err != nil {
			return fmt.Sprintf("%d of %d points failed; first: %s: %v", failed, len(outs), grid[i].Key(), o.err)
		}
	}
	return fmt.Sprintf("%d of %d points failed", failed, len(outs))
}

// JobStatus is the polling view of a job: its state plus per-point
// progress counters (Cached counts store hits — points served without
// simulating; Retries leases requeued).
type JobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Cached    int    `json:"cached"`
	Simulated int    `json:"simulated"`
	Failed    int    `json:"failed"`
	Retries   int    `json:"retries,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Terminal reports whether the state is final.
func (st JobStatus) Terminal() bool {
	switch st.State {
	case JobDone, JobFailed, JobCancelled, JobInterrupted:
		return true
	}
	return false
}

func (jb *job) status() JobStatus {
	st := jb.progress
	st.ID, st.State, st.Total, st.Error = jb.id, jb.state, len(jb.grid), jb.errMsg
	return st
}

// PointOutcome is one grid point's terminal state on the wire. It names
// no point: outcomes are positional, the i-th answering the i-th point
// submitted. Result carries the exact core.Result (its JSON form
// round-trips every float64 bit, non-finite values included, so served
// results are bit-identical to in-process ones); Error is set instead
// when the point failed.
type PointOutcome struct {
	Result *core.Result `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
	Cached bool         `json:"cached,omitempty"`
}

// JobResults is the terminal payload: final status plus one outcome per
// grid point, in submission order.
type JobResults struct {
	Status   JobStatus      `json:"status"`
	Outcomes []PointOutcome `json:"outcomes"`
}

// jobRequest is the submission payload.
type jobRequest struct {
	Points []Point `json:"points"`
}

type apiError struct {
	Error string `json:"error"`
}

// encodeJSON renders v the way every response body is rendered: compact,
// one line.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// writeJSON encodes before it commits to a status: a value JSON cannot
// carry (a non-finite float) answers 500 with the encoder's error, not
// the requested code over an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = encodeJSON(apiError{Error: fmt.Sprintf("encoding response: %v", err)}) // a string always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body) // a failed write means the client went away
}

// decodeBody reads a JSON request body into v, naming the cap when the
// body is over maxBody. The body is one JSON value: anything but
// whitespace after it is refused, and so is a member v does not declare,
// at any depth — the error names it — since a server that dropped a
// misspelled setting would answer a question nobody asked.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	decoded := err == nil
	if decoded {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
	}
	var big *http.MaxBytesError
	switch {
	case errors.As(err, &big):
		return fmt.Errorf("request body is over the %d MiB limit", big.Limit>>20)
	case decoded:
		return errors.New("request body has data after its JSON value")
	}
	return err
}

// holdFor reads a request's wait_ms: how long the caller lets the server
// hold the request, clamped to [0, limit].
func holdFor(ms int64, limit time.Duration) time.Duration {
	if ms <= 0 {
		return 0
	}
	if ms > limit.Milliseconds() {
		return limit
	}
	return time.Duration(ms) * time.Millisecond
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("malformed job: %v", err)})
		return
	}
	if len(req.Points) == 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "job has no points"})
		return
	}
	grid := make([]core.Config, len(req.Points))
	for i, p := range req.Points {
		c, err := p.Config()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("point %d: %v", i, err)})
			return
		}
		grid[i] = c
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is shutting down"})
		return
	}
	s.nextID++
	jb := &job{
		srv:   s,
		id:    fmt.Sprintf("j%06d", s.nextID),
		grid:  grid,
		state: JobQueued,
		done:  make(chan struct{}),
	}
	select {
	case s.queue <- jb:
	default:
		s.nextID--
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: fmt.Sprintf("job queue is full (%d queued); retry later", s.opt.QueueLimit)})
		return
	}
	s.jobs[jb.id] = jb
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, JobStatus{ID: jb.id, State: JobQueued, Total: len(grid)})
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	jb := s.jobs[id]
	issued := s.nextID
	s.mu.Unlock()
	if jb != nil {
		return jb
	}
	// IDs are issued in sequence, so one this process handed out that is
	// no longer in the map fell out of the retention window. Only the
	// exact form it was issued in counts: j6 and j000006x never were.
	msg := fmt.Sprintf("no such job %q", id)
	var n int64
	if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n >= 1 && n <= issued && id == fmt.Sprintf("j%06d", n) {
		msg = fmt.Sprintf("job %s expired (the server keeps its %d most recent finished jobs); resubmit — completed points are stored", id, retainJobs)
	}
	writeJSON(w, http.StatusNotFound, apiError{Error: msg})
	return nil
}

// awaitJob holds a request carrying ?wait_ms=N until the job is
// terminal, N ms (at most maxHold) pass, the caller goes away or the
// server starts draining — so a waiter learns of completion when it
// happens rather than at its next poll. Without wait_ms it returns at once.
func (s *Server) awaitJob(r *http.Request, jb *job) {
	ms, _ := strconv.ParseInt(r.URL.Query().Get("wait_ms"), 10, 64) // absent or malformed: no hold
	hold := holdFor(ms, maxHold)
	if hold <= 0 {
		return
	}
	t := time.NewTimer(hold)
	defer t.Stop()
	select {
	case <-jb.done:
	case <-t.C:
	case <-r.Context().Done():
	case <-s.draining:
	}
}

// handleStatus answers a job's status, held by wait_ms (see awaitJob).
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	jb := s.lookupJob(w, r)
	if jb == nil {
		return
	}
	s.awaitJob(r, jb)
	s.mu.Lock()
	st := jb.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleResults answers a terminal job's outcomes, held by wait_ms like
// a status request; a job still queued or running when the hold ends
// answers 409.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	jb := s.lookupJob(w, r)
	if jb == nil {
		return
	}
	s.awaitJob(r, jb)
	s.mu.Lock()
	st := jb.status()
	outs := jb.outs
	s.mu.Unlock()
	if !st.Terminal() {
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("job %s is %s; results are available once terminal", st.ID, st.State)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(resultsBody(st, outs)) // a failed write means the client went away
}

// resultsBody renders a terminal job's JobResults byte for byte as
// encodeJSON would, by concatenation: each point's result is already the
// JSON the job recorded, which encoding/json would scan and copy again.
// outs is nil for a job that never started, whose points all report that
// they did not execute.
func resultsBody(st JobStatus, outs []outcome) []byte {
	status, _ := json.Marshal(st) // strings and integers always encode
	var unrun outcome
	if len(outs) < st.Total {
		unrun.err = fmt.Errorf("point not executed: job %s", st.State)
	}
	size := len(status) + 32*(st.Total+1)
	for _, o := range outs {
		size += len(o.result)
	}
	b := append(append(make([]byte, 0, size), `{"status":`...), status...)
	b = append(b, `,"outcomes":[`...)
	for i := 0; i < st.Total; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		o := unrun
		if i < len(outs) {
			o = outs[i]
		}
		b = appendOutcome(b, o)
	}
	return append(b, "]}\n"...)
}

// appendOutcome appends o as a PointOutcome, fields omitted when empty.
func appendOutcome(b []byte, o outcome) []byte {
	b = append(b, '{')
	if o.err != nil {
		if msg := o.err.Error(); msg != "" {
			quoted, _ := json.Marshal(msg) // a string always encodes
			b = append(append(b, `"error":`...), quoted...)
		}
		return append(b, '}')
	}
	b = append(append(b, `"result":`...), o.result...)
	if o.cached {
		b = append(b, `,"cached":true`...)
	}
	return append(b, '}')
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb := s.lookupJob(w, r)
	if jb == nil {
		return
	}
	s.mu.Lock()
	switch jb.state {
	case JobQueued:
		s.finishLocked(jb, JobCancelled, "")
	case JobRunning:
		jb.reason = JobCancelled
		if jb.cancel != nil {
			jb.cancel()
		}
	}
	st := jb.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Stats())
}

// healthReport is the GET /healthz payload: liveness plus the store's
// integrity picture (quarantines, recovery-scan time, orphaned-temp
// deletions), so a cluster operator sees silent corruption at the same
// endpoint a load balancer probes.
type healthReport struct {
	Status string     `json:"status"`
	Mode   string     `json:"mode"`
	Store  StoreStats `json:"store"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "shutting down"})
		return
	}
	writeJSON(w, http.StatusOK, healthReport{Status: "ok", Mode: s.Mode(), Store: s.store.Stats()})
}

// Status returns a job's status by ID, for in-process embedding.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return jb.status(), true
}
