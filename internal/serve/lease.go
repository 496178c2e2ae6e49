package serve

import (
	"fmt"
	"time"

	"lapses/internal/core"
	"lapses/internal/sweep"
)

// outcome is one resolved point as a job keeps it until it is forgotten:
// the result's JSON, which is what the results route serves (a store
// hit's verified payload, or Result.MarshalJSON run once when a reported
// result is recorded), or the error that failed the point.
type outcome struct {
	result []byte
	err    error
	cached bool
}

// workUnit is one leased range of a clustered job's grid: the indices a
// worker must resolve, how many times the unit has been claimed, and the
// lease that currently owns it. Units start as contiguous point ranges
// (sweep.Ranges over the unresolved grid); a requeued unit carries only
// the indices its previous owner left unresolved.
type workUnit struct {
	indices []int
	attempt int

	lease   string
	owner   string
	expires time.Time
}

// clusterGrid is the server-side lease state of one job: the grid, the
// merged outcomes accumulating in grid order, the pending-unit queue
// workers claim from, and the active leases being heartbeat-renewed.
//
// Every method requires the owning Server's mu — the lease methods and
// the expiry scanner all mutate one clusterGrid, and the Server lock is
// the single serialization point (lease traffic is a claim and a
// completion per unit, nowhere near contention).
//
// The exactly-once-effect argument lives here: done[i] flips exactly
// once per point (record discards duplicates), so no matter how claim,
// expiry, late completion and requeue interleave, each point's outcome
// lands once — and because re-execution of an already-persisted point is
// a store hit, duplicated *leases* never mean duplicated *simulation*.
type clusterGrid struct {
	jobID string
	// token is the job's cluster-wide identity: the job ID qualified by
	// the coordinator's per-process epoch. Lease IDs are minted under it
	// and workers echo it back in completions, so grants from a previous
	// coordinator incarnation (job IDs restart from j000001 after a
	// restart) can never collide with — or be merged into — a fresh job.
	token  string
	grid   []core.Config
	points []Point

	outs      []outcome
	done      []bool
	remaining int

	pending   []*workUnit
	active    map[string]*workUnit
	nextLease int64

	ttl         time.Duration
	maxAttempts int
	cancelled   bool
	// finished closes once every point is resolved (done, or failed
	// permanently) or the grid is stopped with no lease out.
	finished chan struct{}
	settled  bool
	progress JobStatus // the job's counters: points recorded, units requeued
	// stats are the server's lifetime lease counters, which every grid
	// counts into directly.
	stats *ClusterStats
}

func newClusterGrid(jobID, epoch string, grid []core.Config, points []Point, ttl time.Duration, maxAttempts int, stats *ClusterStats) *clusterGrid {
	cg := &clusterGrid{
		jobID:       jobID,
		token:       jobID + "." + epoch,
		grid:        grid,
		points:      points,
		outs:        make([]outcome, len(grid)),
		done:        make([]bool, len(grid)),
		remaining:   len(grid),
		active:      map[string]*workUnit{},
		ttl:         ttl,
		maxAttempts: maxAttempts,
		finished:    make(chan struct{}),
		stats:       stats,
	}
	return cg
}

// record resolves point i with o, once: duplicates (a late completion of
// a lease that was already requeued and re-executed) are discarded, so
// whichever report arrives first wins and the merged outcome is stable.
func (cg *clusterGrid) record(i int, o outcome) {
	if i < 0 || i >= len(cg.done) || cg.done[i] {
		return
	}
	cg.outs[i] = o
	cg.done[i] = true
	cg.remaining--
	cg.progress.Completed++
	switch {
	case o.err != nil:
		cg.progress.Failed++
	case o.cached:
		cg.progress.Cached++
	default:
		cg.progress.Simulated++
	}
	cg.settle()
}

// settle closes finished once nothing more can be recorded.
func (cg *clusterGrid) settle() {
	if !cg.settled && (cg.remaining == 0 || cg.cancelled && len(cg.active) == 0) {
		cg.settled = true
		close(cg.finished)
	}
}

// seed chunks the still-unresolved indices into contiguous lease units
// of at most unitSize points each.
func (cg *clusterGrid) seed(unitSize int) {
	var undone []int
	for i, d := range cg.done {
		if !d {
			undone = append(undone, i)
		}
	}
	for _, r := range sweep.Ranges(len(undone), unitSize) {
		cg.pending = append(cg.pending, &workUnit{indices: undone[r[0]:r[1]]})
	}
}

// claim hands the next pending unit to worker under a fresh lease, or
// returns nil when there is no work (drained queue, or job cancelled).
func (cg *clusterGrid) claim(worker string, now time.Time) *workUnit {
	if cg.cancelled || len(cg.pending) == 0 {
		return nil
	}
	u := cg.pending[0]
	cg.pending = cg.pending[1:]
	cg.nextLease++
	u.lease = fmt.Sprintf("%s-l%04d", cg.token, cg.nextLease)
	u.owner = worker
	u.attempt++
	u.expires = now.Add(cg.ttl)
	cg.active[u.lease] = u
	cg.stats.Claims++
	return u
}

// heartbeat renews a lease's TTL. False tells the worker its lease is
// gone — expired and requeued, the job finished or was cancelled, or the
// coordinator restarted — and it should abandon the unit (everything it
// already persisted stays durable; the re-execution will hit the store).
func (cg *clusterGrid) heartbeat(lease string, now time.Time) bool {
	u := cg.active[lease]
	if u == nil || cg.cancelled {
		return false
	}
	u.expires = now.Add(cg.ttl)
	return true
}

// expireOrphans requeues every lease whose worker has gone silent past
// its TTL — the failure detector for kill -9, network partition, and
// hung workers alike.
func (cg *clusterGrid) expireOrphans(now time.Time) {
	for lease, u := range cg.active {
		if now.After(u.expires) {
			delete(cg.active, lease)
			cg.stats.OrphanRequeues++
			cg.requeue(u, fmt.Sprintf("lease %s orphaned: worker %q went silent past the %s TTL", u.lease, u.owner, cg.ttl))
		}
	}
	cg.settle()
}

// requeue returns a unit's unresolved indices to the pending queue — or,
// once the attempt budget (ServerOptions.MaxAttempts) is spent, fails
// them permanently with reason, why the unit's last lease ended, so the
// unit cannot bounce forever. It reports whether the unit still owed any
// point. A stopped grid requeues nothing.
func (cg *clusterGrid) requeue(u *workUnit, reason string) bool {
	if cg.cancelled {
		return false
	}
	var left []int
	for _, i := range u.indices {
		if !cg.done[i] {
			left = append(left, i)
		}
	}
	if len(left) == 0 {
		return false
	}
	if u.attempt >= cg.maxAttempts {
		cg.stats.ExhaustedUnits++
		err := fmt.Errorf("serve: giving up after %d lease attempts: %s", u.attempt, reason)
		for _, i := range left {
			cg.record(i, outcome{err: err})
		}
		return true
	}
	cg.pending = append(cg.pending, &workUnit{indices: left, attempt: u.attempt})
	cg.progress.Retries++
	return true
}

// complete applies a worker's per-point reports for a lease.
//
//   - A result or an error resolves its point. Every reported error is
//     permanent: the simulator is deterministic, so running the point
//     again cannot change its answer.
//   - Points the report leaves out (a draining worker reports only what
//     it ran) are handed back: requeue puts them in the queue at once,
//     under the capped attempt budget.
//   - A late report — the lease already expired and was requeued — still
//     resolves its points: re-execution is idempotent, record discards
//     whichever copy arrives second, and the slow-but-alive worker's
//     results are not thrown away.
//
// Returns whether the report was late.
func (cg *clusterGrid) complete(lease string, reports []PointReport) (late bool) {
	u := cg.active[lease]
	late = u == nil
	if late {
		cg.stats.LateReports++
	} else {
		delete(cg.active, lease)
	}
	for _, r := range reports {
		switch {
		case r.Error != "":
			cg.record(r.Index, outcome{err: fmt.Errorf("%s", r.Error)})
		case r.Result != nil:
			raw, err := r.Result.MarshalJSON()
			cg.record(r.Index, outcome{result: raw, err: err, cached: r.Cached})
		}
	}
	if u != nil && cg.requeue(u, fmt.Sprintf("lease %s returned without resolving all points", lease)) {
		cg.stats.TransientRequeues++
	}
	cg.settle()
	return late
}

// stop ends leasing: claims find nothing, heartbeats answer false and
// nothing is requeued, while the leases already out may still report.
func (cg *clusterGrid) stop() {
	cg.cancelled = true
	cg.pending = nil
	cg.settle()
}
