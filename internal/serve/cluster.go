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
// taxonomy as a standalone server's in-process Worker (see CompleteRequest).
type ClusterOptions struct {
	// LeaseTTL is how long a claimed point stays owned without a
	// heartbeat before the failure detector requeues it (default 10s).
	// It also sets the heartbeat cadence advertised to workers: a
	// quarter of it.
	LeaseTTL time.Duration
}

// defaultLeaseTTL is the lease TTL of a standalone server and of a
// coordinator that sets none; a variable only so tests can shorten it.
var defaultLeaseTTL = 10 * time.Second

func (o ClusterOptions) normalize() ClusterOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = defaultLeaseTTL
	}
	return o
}

// heartbeat is the renewal cadence advertised to workers, a quarter of
// the lease TTL, and the pause before an unheld claim is retried.
func (o ClusterOptions) heartbeat() time.Duration { return o.LeaseTTL / 4 }

// Cluster wire types. A worker's conversation with the coordinator is
// three POSTs: claim a lease, heartbeat it while simulating, complete it
// with its point's outcome. A coordinator and its workers must be one
// build: each refuses a grant or a completion in another build's form.

// ClaimRequest asks the coordinator for a point to lease. Version is the
// worker's core.SemanticsVersion: a claim that omits it or names another
// is refused, as its results would be stored as this version's. WaitMS lets
// the coordinator hold the request while it has nothing to lease — until
// a point is seeded or requeued, WaitMS (at most maxHold and one lease TTL,
// which keeps the worker's last-seen time fresh) passes, or it drains —
// so an idle worker starts on a new job when it arrives, not at its next
// poll.
type ClaimRequest struct {
	Worker  string `json:"worker"`
	Version int    `json:"version"`
	WaitMS  int64  `json:"wait_ms,omitempty"`
}

// ClaimResponse grants a lease (Lease non-empty) or reports no work.
// Job is the job's cluster-wide identity (the job ID qualified by the
// coordinator's incarnation epoch); the worker must echo it back in the
// lease's CompleteRequest. A grant carries one Point, the lease's; Index
// is its position in the job's grid, for logs and tests only: the
// coordinator knows which point it leased and never reads it back.
type ClaimResponse struct {
	Lease   string `json:"lease,omitempty"`
	Job     string `json:"job,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Index   int    `json:"index,omitempty"`
	Point   *Point `json:"point,omitempty"`
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

// CompleteRequest finishes a lease with the outcome of the point it was
// granted for: the result, or an error that fails the point for good (a
// recovered panic included — the simulator is deterministic). Neither
// hands back a point the worker never started, for requeue at once. Job
// must be the ClaimResponse.Job of the lease: a completion under another
// Job is dropped (reported Late), as its lease is another grid's.
type CompleteRequest struct {
	Lease  string `json:"lease"`
	Job    string `json:"job"`
	Worker string `json:"worker"`
	PointOutcome
}

// CompleteResponse acknowledges a completion. Late means the lease had
// already ended (expired and been requeued, or been handed back) or was
// never this job's; a late outcome of a lease the job granted still
// resolves its point (first outcome wins, duplicates discarded).
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
// last attempt. A unit is one distinct point of a job, leased as one.
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
// server's own Worker when standalone. It is the one place a served grid
// is deduplicated: the points that share a key are one work unit, leased
// as the first of them, whose outcome lands at every one of them. It
// resolves already-stored units up front (a resubmitted grid costs zero
// leases for completed work), queues the rest for lease one unit at a
// time, and runs the orphan-lease failure detector until every point is
// resolved or the job context ends.
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
	var units []*workUnit
	var distinct []core.Config // each unit's first point
	var keys []string          // and its key
	byKey := make(map[string]*workUnit, len(jb.grid))
	for i, c := range jb.grid {
		key := c.Key()
		if u, seen := byKey[key]; seen {
			u.repeats = append(u.repeats, i)
			continue
		}
		u := &workUnit{index: i}
		byKey[key] = u
		units, distinct, keys = append(units, u), append(distinct, c), append(keys, key)
	}
	// The store is read once per unit, on sweep.Run's pool, in OnPoint,
	// which knows the unit; the runner simulates nothing. No lock: only
	// the drawing worker writes a unit's slot of stored.
	stored := make([][]byte, len(units))
	sweep.Run(ctx, distinct, sweep.Options{
		Runner:  func(core.Config) (core.Result, error) { return core.Result{}, nil },
		OnPoint: func(j int, _ sweep.Outcome) { stored[j], _ = s.store.getJSON(keys[j]) },
	})
	s.mu.Lock()
	jb.token = jb.id + "." + s.epoch
	jb.outs = make([]outcome, len(jb.grid))
	jb.active = map[string]*workUnit{}
	jb.granted = map[string]*workUnit{}
	jb.finished = make(chan struct{})
	for j, u := range units {
		if stored[j] != nil {
			jb.resolve(u, outcome{result: stored[j], cached: true})
		} else {
			jb.pending = append(jb.pending, u)
		}
	}
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
	jb.pending, jb.active, jb.granted = nil, nil, nil
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
		Index:       u.index,
		TTLMS:       s.lease.LeaseTTL.Milliseconds(),
		HeartbeatMS: s.lease.heartbeat().Milliseconds(),
	}
	s.mu.Unlock()
	// Outside the lock: a job's grid never changes, and every config in
	// it came from a submitted Point, so it has a wire form.
	p := point(&jb.grid[u.index])
	grant.Point = &p
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

// complete resolves the point req's lease was granted for with req's
// outcome and makes a reported result durable under that point's key.
func (s *Server) complete(req CompleteRequest) CompleteResponse {
	now := time.Now()
	s.mu.Lock()
	if req.Worker != "" {
		s.workersSeen[req.Worker] = now
	}
	jb := s.cluster
	idx, late := -1, true
	if jb != nil && req.Job == jb.token {
		idx, late = jb.complete(req.Lease, req.PointOutcome)
		if len(jb.pending) > 0 { // requeued: claims park only on an empty queue
			s.wakeClaimsLocked()
		}
	} else {
		// No job is executing, or the lease belongs to another one
		// (granted before a job transition, or by a previous coordinator
		// incarnation): its point is not in this grid, and recording or
		// ensuring anything here would stamp one job's result onto another
		// job's config. The worker's store write is already durable, and a
		// resubmission of its job resolves from it.
		s.ctot.LateReports++
	}
	s.mu.Unlock()
	// Make a reported result durable in the coordinator's store (a no-op
	// under a shared directory, where the worker's own write already
	// landed). Outside the lock: this is disk I/O, and a job's grid never
	// changes.
	if idx >= 0 && req.Error == "" && req.Result != nil {
		s.store.Ensure(jb.grid[idx].Key(), *req.Result)
	}
	return CompleteResponse{OK: true, Late: late}
}

// readRPC decodes a cluster RPC's body into req and requires member,
// read into *value, to be non-empty; else it answers 400 naming the
// unread or the missing member (or the other decode error).
func (s *Server) readRPC(w http.ResponseWriter, r *http.Request, kind string, req any, member string, value *string) bool {
	if s.notCoordinator(w) {
		return false
	}
	err := decodeBody(r, req)
	if err == nil && *value == "" {
		err = fmt.Errorf("lacks required member %q", member)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("malformed %s: %v", kind, err)})
		return false
	}
	return true
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if !s.readRPC(w, r, "claim", &req, "worker", &req.Worker) {
		return
	}
	if req.Version != core.SemanticsVersion {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf(
			`claim refused: its "version" is %d and this coordinator's semantics version is %d; run the coordinator and its workers from one build`,
			req.Version, core.SemanticsVersion)})
		return
	}
	if grant, err := s.claim(r.Context(), req); err == nil { // else the caller went away
		writeJSON(w, http.StatusOK, grant)
	}
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !s.readRPC(w, r, "heartbeat", &req, "lease", &req.Lease) {
		return
	}
	writeJSON(w, http.StatusOK, s.heartbeat(req))
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !s.readRPC(w, r, "completion", &req, "lease", &req.Lease) {
		return
	}
	writeJSON(w, http.StatusOK, s.complete(req))
}

// inProcess is the peer a standalone server's Worker claims from.
type inProcess struct{ s *Server }

func (p inProcess) Claim(ctx context.Context, worker string, wait time.Duration) (ClaimResponse, error) {
	return p.s.claim(ctx, ClaimRequest{Worker: worker, Version: core.SemanticsVersion, WaitMS: wait.Milliseconds()})
}

func (p inProcess) Heartbeat(_ context.Context, lease, worker string) (bool, error) {
	return p.s.heartbeat(HeartbeatRequest{Lease: lease, Worker: worker}).OK, nil
}

func (p inProcess) Complete(_ context.Context, lease, job, worker string, out PointOutcome) (CompleteResponse, error) {
	return p.s.complete(CompleteRequest{Lease: lease, Job: job, Worker: worker, PointOutcome: out}), nil
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
	err := c.do(ctx, http.MethodPost, "/v1/cluster/claim", ClaimRequest{Worker: worker, Version: core.SemanticsVersion, WaitMS: wait.Milliseconds()}, &resp)
	return resp, err
}

// Heartbeat renews a lease; ok=false means the lease is lost and its
// point should be abandoned.
func (c *Client) Heartbeat(ctx context.Context, lease, worker string) (bool, error) {
	var resp HeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/v1/cluster/heartbeat", HeartbeatRequest{Lease: lease, Worker: worker}, &resp)
	return resp.OK, err
}

// Complete reports the outcome of a lease's point; the zero outcome
// hands the point back. job must be the ClaimResponse.Job the lease was
// granted under. Retries transport errors: losing a completion to a blip
// would cost a whole requeue cycle, and re-delivery is idempotent
// coordinator-side.
func (c *Client) Complete(ctx context.Context, lease, job, worker string, out PointOutcome) (CompleteResponse, error) {
	var resp CompleteResponse
	err := c.doRetry(ctx, http.MethodPost, "/v1/cluster/complete", CompleteRequest{Lease: lease, Job: job, Worker: worker, PointOutcome: out}, &resp)
	return resp, err
}

// ClusterStats fetches a coordinator's lease counters.
func (c *Client) ClusterStats(ctx context.Context) (ClusterStats, error) {
	var st ClusterStats
	err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &st)
	return st, err
}
