package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"lapses/internal/core"
	"lapses/internal/sweep"
)

// ClusterOptions turn a Server into a cluster coordinator: its jobs'
// points are leased, one point a lease, to worker instances that claim,
// heartbeat, and complete them over HTTP, under the same failure
// taxonomy as a standalone server's in-process Worker (see PointReport).
type ClusterOptions struct {
	// LeaseTTL is how long a claimed point stays owned without a
	// heartbeat before the failure detector requeues it (default 10s).
	// It also sets the heartbeat cadence advertised to workers: a
	// quarter of it.
	LeaseTTL time.Duration
}

func (o ClusterOptions) normalize() ClusterOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	return o
}

// heartbeat is the renewal cadence advertised to workers, a quarter of
// the lease TTL, and the pause before an unheld claim is retried.
func (o ClusterOptions) heartbeat() time.Duration { return o.LeaseTTL / 4 }

// Cluster wire types. A worker's conversation with the coordinator is
// three POSTs: claim a lease, heartbeat it while simulating, complete it
// with per-point reports.

// ClaimRequest asks the coordinator for a point to lease. WaitMS lets
// the coordinator hold the request while it has nothing to lease — until
// a point is seeded or requeued, WaitMS (at most maxHold and one lease TTL,
// which keeps the worker's last-seen time fresh) passes, or it drains —
// so an idle worker starts on a new job when it arrives, not at its next
// poll.
type ClaimRequest struct {
	Worker string `json:"worker"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

// ClaimResponse grants a lease (Lease non-empty) or reports no work.
// Job is the job's cluster-wide identity (the job ID qualified by the
// coordinator's incarnation epoch); the worker must echo it back in the
// lease's CompleteRequest. A grant's Indices and Points hold one point;
// a worker runs the points of a longer grant, which a coordinator built
// before leases were one point sends, one after another.
type ClaimResponse struct {
	Lease   string  `json:"lease,omitempty"`
	Job     string  `json:"job,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Indices []int   `json:"indices,omitempty"`
	Points  []Point `json:"points,omitempty"`
	// TTLMS and HeartbeatMS tell the worker the lease contract: renew at
	// least every HeartbeatMS or lose the lease after TTLMS of silence.
	TTLMS       int64 `json:"ttl_ms,omitempty"`
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
	// RetryMS is how long to wait before the next claim when no work was
	// granted. It is zero when the coordinator held the claim for its full
	// wait (the waiting already happened here: claim again at once) and a
	// heartbeat interval when it did not hold it. Draining means the
	// coordinator is shutting down.
	RetryMS  int64 `json:"retry_ms,omitempty"`
	Draining bool  `json:"draining,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
}

// HeartbeatResponse reports whether the lease is still owned. OK=false
// tells the worker to abandon the lease: it expired and was requeued,
// the job ended, or the coordinator restarted.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// PointReport is one grid point's terminal state as reported by a
// worker: its result, or an error that fails the point for good (a
// recovered panic included — the simulator is deterministic, so running
// the point again cannot change its answer). A point the worker never
// ran is left out of the completion, and the coordinator requeues it.
type PointReport struct {
	Index  int          `json:"index"`
	Result *core.Result `json:"result,omitempty"`
	Cached bool         `json:"cached,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// CompleteRequest finishes a lease with per-point reports. Job must be
// the ClaimResponse.Job the lease was granted under: a completion whose
// Job does not match the running job is dropped wholesale (reported
// Late), because its indices point into a different grid — without the
// check, a completion arriving after a job transition would merge one
// job's results into another job's points.
type CompleteRequest struct {
	Lease   string        `json:"lease"`
	Job     string        `json:"job"`
	Worker  string        `json:"worker"`
	Reports []PointReport `json:"reports"`
}

// CompleteResponse acknowledges a completion. Late means the lease had
// already expired and been requeued; the successes were still merged
// (first result wins, duplicates discarded).
type CompleteResponse struct {
	OK   bool `json:"ok"`
	Late bool `json:"late"`
}

// ClusterStats is the coordinator's operational view, served at
// GET /v1/cluster: the live lease picture plus cumulative counters
// across all jobs since the process started, which every lease event
// bumps as it happens. TransientRequeues counts leases a worker
// completed with their point unresolved (a draining worker hands back a
// point it never started); each went back to the queue, or failed on its
// last attempt. A unit is one leased point.
type ClusterStats struct {
	Coordinator       bool   `json:"coordinator"`
	ActiveJob         string `json:"active_job,omitempty"`
	PendingUnits      int    `json:"pending_units"`
	ActiveLeases      int    `json:"active_leases"`
	Claims            int64  `json:"claims"`
	OrphanRequeues    int64  `json:"orphan_requeues"`
	TransientRequeues int64  `json:"transient_requeues"`
	LateReports       int64  `json:"late_reports"`
	ExhaustedUnits    int64  `json:"exhausted_units"`
	// WorkersSeen counts live worker identities: those heard from within
	// the last few lease TTLs. Older identities are pruned, so worker
	// restarts (each restart is a fresh host:pid identity by default) do
	// not grow the coordinator's memory or inflate the stat forever.
	WorkersSeen int `json:"workers_seen"`
}

// workerSeenHorizon is how long a silent worker identity stays in
// workersSeen before the coordinator forgets it, as a multiple of the
// lease TTL. Anything alive claims or heartbeats far more often than
// this; anything silent past it is gone (crashed, drained, restarted
// under a new identity).
const workerSeenHorizon = 4

// pruneWorkersLocked forgets worker identities not heard from within
// workerSeenHorizon lease TTLs (mu held).
func (s *Server) pruneWorkersLocked(now time.Time) {
	cutoff := now.Add(-workerSeenHorizon * s.lease.LeaseTTL)
	for id, seen := range s.workersSeen {
		if seen.Before(cutoff) {
			delete(s.workersSeen, id)
		}
	}
}

// runClustered executes one job by leasing its grid to workers — the
// server's own Worker when standalone. It resolves already-stored points
// up front (a resubmitted grid costs zero leases for completed work),
// queues the rest for lease one point at a time, and runs the
// orphan-lease failure detector until every point is resolved or the job
// context ends.
//
// When ctx ends (DELETE, the deadline, Shutdown) no lease is granted or
// renewed, and the leases already out count what they report until each
// has completed or expired (one TTL plus one scan at most); the points
// still unresolved then carry the context error. Shutdown waits only for
// the server's own Worker: remote workers' points are durable either way.
//
// The merge is deterministic by construction: outcomes land at their
// grid index, each exactly once, and every simulated result is the
// deterministic core.Run output for its config — so the merged slice is
// byte-identical to a single-process sweep.Run of the same grid, for
// any worker count, claim interleaving, or crash schedule.
func (s *Server) runClustered(ctx context.Context, jb *job) error {
	// The store is read on sweep.Run's pool, in OnPoint, which knows the
	// point's index, and the runner simulates nothing. The pool reads the
	// first point of each distinct key, and the points that repeat a key
	// share its verified bytes: a key is read once per job. No lock: only
	// the drawing worker writes a point's slot of stored.
	keys := make([]string, len(jb.grid))
	first := make(map[string]int, len(jb.grid)) // a key's first index
	var distinct []core.Config                  // each key's first point
	var reads []int                             // and its index
	for i, c := range jb.grid {
		keys[i] = c.Key()
		if _, seen := first[keys[i]]; !seen {
			first[keys[i]] = i
			distinct, reads = append(distinct, c), append(reads, i)
		}
	}
	stored := make([][]byte, len(jb.grid))
	sweep.Run(ctx, distinct, sweep.Options{
		Runner:  func(core.Config) (core.Result, error) { return core.Result{}, nil },
		OnPoint: func(j int, _ sweep.Outcome) { stored[reads[j]], _ = s.store.getJSON(keys[reads[j]]) },
	})
	s.mu.Lock()
	jb.token = jb.id + "." + s.epoch
	jb.outs = make([]outcome, len(jb.grid))
	jb.active = map[string]*workUnit{}
	jb.finished = make(chan struct{})
	for i, key := range keys {
		if raw := stored[first[key]]; raw != nil {
			jb.record(i, outcome{result: raw, cached: true})
		}
	}
	jb.seed()
	s.cluster = jb
	if len(jb.pending) > 0 {
		s.wakeClaimsLocked()
	}
	s.mu.Unlock()

	// The failure detector's scan cadence: a dead worker's lease is
	// requeued at most TTL + scan after its last heartbeat.
	scan := max(s.lease.LeaseTTL/4, 5*time.Millisecond)
	ticker := time.NewTicker(scan)
	defer ticker.Stop()
	ended := ctx.Done()
	var slotsGone <-chan struct{}
	for settled := false; !settled; {
		select {
		case <-jb.finished:
			settled = true
		case <-slotsGone:
			settled = true
		case <-ended:
			ended, slotsGone = nil, s.slotsDone
			s.mu.Lock()
			jb.stop()
			s.mu.Unlock()
		case <-ticker.C:
			now := time.Now()
			s.mu.Lock()
			jb.expireOrphans(now)
			if len(jb.pending) > 0 { // requeued: claims park only on an empty queue
				s.wakeClaimsLocked()
			}
			s.pruneWorkersLocked(now)
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		for i := range jb.outs {
			if !jb.outs[i].resolved() { // never ran: no progress counter counts it
				jb.outs[i].err = err
			}
		}
	}
	s.cluster = nil
	jb.pending, jb.active = nil, nil
	return ctx.Err()
}

func (s *Server) notCoordinator(w http.ResponseWriter) bool {
	if s.opt.Cluster != nil {
		return false
	}
	writeJSON(w, http.StatusPreconditionFailed, apiError{Error: "this instance is not a cluster coordinator (start it with -mode coordinator)"})
	return true
}

// wakeClaimsLocked wakes every held claim to look at the queue again
// (mu held): a point was seeded or requeued, or the server is draining.
func (s *Server) wakeClaimsLocked() {
	close(s.work)
	s.work = make(chan struct{})
}

// tryClaim leases the next pending point to worker. With nothing to
// lease it returns the channel the next wakeClaimsLocked will close.
func (s *Server) tryClaim(worker string) (grant *ClaimResponse, wake <-chan struct{}, draining bool) {
	now := time.Now()
	s.mu.Lock()
	s.workersSeen[worker] = now
	jb := s.cluster
	var u *workUnit
	if !s.closed && jb != nil {
		u = jb.claim(worker, now)
	}
	if u == nil {
		wake, draining = s.work, s.closed
		s.mu.Unlock()
		return nil, wake, draining
	}
	grant = &ClaimResponse{
		Lease:       u.lease,
		Job:         jb.token,
		Attempt:     u.attempt,
		Indices:     []int{u.index},
		TTLMS:       s.lease.LeaseTTL.Milliseconds(),
		HeartbeatMS: s.lease.heartbeat().Milliseconds(),
	}
	s.mu.Unlock()
	// Outside the lock: a job's grid never changes, and every config in
	// it came from a submitted Point, so it has a wire form.
	grant.Points = []Point{point(&jb.grid[grant.Indices[0]])}
	return grant, nil, false
}

// claim grants req.Worker a lease, holding the request while there is
// none for up to req.WaitMS (at most maxHold and one lease TTL). It
// fails only when ctx ends first.
func (s *Server) claim(ctx context.Context, req ClaimRequest) (ClaimResponse, error) {
	hold := holdFor(req.WaitMS, min(maxHold, s.lease.LeaseTTL))
	expired := time.NewTimer(hold)
	defer expired.Stop()
	for {
		grant, wake, draining := s.tryClaim(req.Worker)
		if grant != nil {
			return *grant, nil
		}
		if hold == 0 || draining {
			return ClaimResponse{RetryMS: s.lease.heartbeat().Milliseconds(), Draining: draining}, nil
		}
		select {
		case <-wake:
		case <-expired.C:
			return ClaimResponse{}, nil
		case <-ctx.Done():
			return ClaimResponse{}, ctx.Err()
		}
	}
}

// heartbeat renews a lease; OK=false tells the worker it is gone.
func (s *Server) heartbeat(req HeartbeatRequest) HeartbeatResponse {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Worker != "" {
		s.workersSeen[req.Worker] = now
	}
	return HeartbeatResponse{OK: s.cluster != nil && s.cluster.heartbeat(req.Lease, now)}
}

// complete merges a lease's per-point reports into the running job.
func (s *Server) complete(req CompleteRequest) CompleteResponse {
	now := time.Now()
	s.mu.Lock()
	if req.Worker != "" {
		s.workersSeen[req.Worker] = now
	}
	jb := s.cluster
	var late bool
	var grid []core.Config // set when the reports are this job's to make durable
	switch {
	case jb != nil && req.Job == jb.token:
		grid = jb.grid
		late = jb.complete(req.Lease, req.Reports)
		if len(jb.pending) > 0 { // requeued: claims park only on an empty queue
			s.wakeClaimsLocked()
		}
	case jb != nil:
		// The report belongs to a different job (its lease was granted
		// before a job transition, or by a previous coordinator
		// incarnation). Its indices point into that job's grid, not this
		// one's — recording or ensuring anything here would stamp one
		// job's results onto another job's configs. Drop it wholesale:
		// the worker's own store writes are already durable, and the
		// old job's requeue/resubmission path resolves from them.
		s.ctot.LateReports++
		late = true
	default:
		// No job is executing (it finished, was cancelled, or the
		// coordinator restarted): the report has nowhere to land, but
		// that is fine — the worker's store writes are already durable,
		// and a resubmission resolves from them.
		s.ctot.LateReports++
		late = true
	}
	s.mu.Unlock()
	// Make worker-reported results durable in the coordinator's store
	// (a no-op under a shared directory, where the worker's own write
	// already landed). Outside the lock: this is disk I/O, and a job's
	// grid never changes.
	for _, rep := range req.Reports {
		if grid != nil && rep.Error == "" && rep.Result != nil && rep.Index >= 0 && rep.Index < len(grid) {
			s.store.Ensure(grid[rep.Index].Key(), *rep.Result)
		}
	}
	return CompleteResponse{OK: true, Late: late}
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	if s.notCoordinator(w) {
		return
	}
	var req ClaimRequest
	if err := decodeBody(r, &req); err != nil || req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "claim needs a worker identity"})
		return
	}
	if grant, err := s.claim(r.Context(), req); err == nil { // else the caller went away
		writeJSON(w, http.StatusOK, grant)
	}
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if s.notCoordinator(w) {
		return
	}
	var req HeartbeatRequest
	if err := decodeBody(r, &req); err != nil || req.Lease == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "heartbeat needs a lease id"})
		return
	}
	writeJSON(w, http.StatusOK, s.heartbeat(req))
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	if s.notCoordinator(w) {
		return
	}
	var req CompleteRequest
	if err := decodeBody(r, &req); err != nil || req.Lease == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("malformed completion: %v", err)})
		return
	}
	writeJSON(w, http.StatusOK, s.complete(req))
}

// inProcess is the peer a standalone server's Worker claims from.
type inProcess struct{ s *Server }

func (p inProcess) Claim(ctx context.Context, worker string, wait time.Duration) (ClaimResponse, error) {
	return p.s.claim(ctx, ClaimRequest{Worker: worker, WaitMS: wait.Milliseconds()})
}

func (p inProcess) Heartbeat(_ context.Context, lease, worker string) (bool, error) {
	return p.s.heartbeat(HeartbeatRequest{Lease: lease, Worker: worker}).OK, nil
}

func (p inProcess) Complete(_ context.Context, lease, job, worker string, reports []PointReport) (CompleteResponse, error) {
	return p.s.complete(CompleteRequest{Lease: lease, Job: job, Worker: worker, Reports: reports}), nil
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.pruneWorkersLocked(time.Now())
	st := s.ctot
	st.Coordinator = s.opt.Cluster != nil
	st.WorkersSeen = len(s.workersSeen)
	if jb := s.cluster; jb != nil {
		st.ActiveJob = jb.id
		st.PendingUnits = len(jb.pending)
		st.ActiveLeases = len(jb.active)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// Cluster RPCs as Client methods, so the worker loop and tests share
// one wire implementation with the job-submission client.

// Claim asks a coordinator for a lease, letting it hold the request up
// to wait while it has no work (0: answer at once). A response with an
// empty Lease means no work became available.
func (c *Client) Claim(ctx context.Context, worker string, wait time.Duration) (ClaimResponse, error) {
	var resp ClaimResponse
	err := c.do(ctx, http.MethodPost, "/v1/cluster/claim", ClaimRequest{Worker: worker, WaitMS: wait.Milliseconds()}, &resp)
	return resp, err
}

// Heartbeat renews a lease; ok=false means the lease is lost and its
// point should be abandoned.
func (c *Client) Heartbeat(ctx context.Context, lease, worker string) (bool, error) {
	var resp HeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/v1/cluster/heartbeat", HeartbeatRequest{Lease: lease, Worker: worker}, &resp)
	return resp.OK, err
}

// Complete reports a lease's per-point outcomes. job must be the
// ClaimResponse.Job the lease was granted under. Retries transport
// errors: losing a completion to a blip would cost a whole requeue
// cycle, and re-delivery is idempotent coordinator-side.
func (c *Client) Complete(ctx context.Context, lease, job, worker string, reports []PointReport) (CompleteResponse, error) {
	var resp CompleteResponse
	err := c.doRetry(ctx, http.MethodPost, "/v1/cluster/complete", CompleteRequest{Lease: lease, Job: job, Worker: worker, Reports: reports}, &resp)
	return resp, err
}

// ClusterStats fetches a coordinator's lease counters.
func (c *Client) ClusterStats(ctx context.Context) (ClusterStats, error) {
	var st ClusterStats
	err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &st)
	return st, err
}
