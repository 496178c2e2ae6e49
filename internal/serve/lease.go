package serve

import (
	"fmt"
	"time"

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

// A running job's lease methods all require the owning Server's mu —
// they and the expiry scanner all mutate one job, and the Server lock is
// the single serialization point (lease traffic is a claim and a
// completion per unit, nowhere near contention).
//
// The exactly-once-effect argument lives here: outs[i] is resolved
// exactly once per point (record discards duplicates), so no matter how
// claim, expiry, late completion and requeue interleave, each point's
// outcome lands once — and because re-execution of an already-persisted
// point is a store hit, duplicated *leases* never mean duplicated
// *simulation*.

// resolved reports whether o holds a point's result or its error.
func (o outcome) resolved() bool { return o.result != nil || o.err != nil }

// record resolves point i with o, once: duplicates (a late completion of
// a lease that was already requeued and re-executed) are discarded, so
// whichever report arrives first wins and the merged outcome is stable.
func (jb *job) record(i int, o outcome) {
	if i < 0 || i >= len(jb.outs) || jb.outs[i].resolved() {
		return
	}
	jb.outs[i] = o
	jb.progress.Completed++
	switch {
	case o.err != nil:
		jb.progress.Failed++
	case o.cached:
		jb.progress.Cached++
	default:
		jb.progress.Simulated++
	}
	jb.settle()
}

// settle closes finished once nothing more can be recorded.
func (jb *job) settle() {
	if !jb.settled && (jb.progress.Completed == len(jb.outs) || jb.stopped && len(jb.active) == 0) {
		jb.settled = true
		close(jb.finished)
	}
}

// seed chunks the still-unresolved indices into contiguous lease units
// of at most unitSize points each.
func (jb *job) seed(unitSize int) {
	var undone []int
	for i, o := range jb.outs {
		if !o.resolved() {
			undone = append(undone, i)
		}
	}
	for _, r := range sweep.Ranges(len(undone), unitSize) {
		jb.pending = append(jb.pending, &workUnit{indices: undone[r[0]:r[1]]})
	}
}

// claim hands the next pending unit to worker under a fresh lease, or
// returns nil when there is no work (drained queue, or job cancelled).
func (jb *job) claim(worker string, now time.Time) *workUnit {
	if jb.stopped || len(jb.pending) == 0 {
		return nil
	}
	u := jb.pending[0]
	jb.pending = jb.pending[1:]
	jb.nextLease++
	u.lease = fmt.Sprintf("%s-l%04d", jb.token, jb.nextLease)
	u.owner = worker
	u.attempt++
	u.expires = now.Add(jb.srv.lease.LeaseTTL)
	jb.active[u.lease] = u
	jb.srv.ctot.Claims++
	return u
}

// heartbeat renews a lease's TTL. False tells the worker its lease is
// gone — expired and requeued, the job finished or was cancelled, or the
// coordinator restarted — and it should abandon the unit (everything it
// already persisted stays durable; the re-execution will hit the store).
func (jb *job) heartbeat(lease string, now time.Time) bool {
	u := jb.active[lease]
	if u == nil || jb.stopped {
		return false
	}
	u.expires = now.Add(jb.srv.lease.LeaseTTL)
	return true
}

// expireOrphans requeues every lease whose worker has gone silent past
// its TTL — the failure detector for kill -9, network partition, and
// hung workers alike.
func (jb *job) expireOrphans(now time.Time) {
	for lease, u := range jb.active {
		if now.After(u.expires) {
			delete(jb.active, lease)
			jb.srv.ctot.OrphanRequeues++
			jb.requeue(u, fmt.Sprintf("lease %s orphaned: worker %q went silent past the %s TTL", u.lease, u.owner, jb.srv.lease.LeaseTTL))
		}
	}
	jb.settle()
}

// requeue returns a unit's unresolved indices to the pending queue — or,
// once the attempt budget (ServerOptions.MaxAttempts) is spent, fails
// them permanently with reason, why the unit's last lease ended, so the
// unit cannot bounce forever. It reports whether the unit still owed any
// point. A stopped job requeues nothing.
func (jb *job) requeue(u *workUnit, reason string) bool {
	if jb.stopped {
		return false
	}
	var left []int
	for _, i := range u.indices {
		if !jb.outs[i].resolved() {
			left = append(left, i)
		}
	}
	if len(left) == 0 {
		return false
	}
	if u.attempt >= jb.srv.opt.MaxAttempts {
		jb.srv.ctot.ExhaustedUnits++
		err := fmt.Errorf("serve: giving up after %d lease attempts: %s", u.attempt, reason)
		for _, i := range left {
			jb.record(i, outcome{err: err})
		}
		return true
	}
	jb.pending = append(jb.pending, &workUnit{indices: left, attempt: u.attempt})
	jb.progress.Retries++
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
func (jb *job) complete(lease string, reports []PointReport) (late bool) {
	u := jb.active[lease]
	late = u == nil
	if late {
		jb.srv.ctot.LateReports++
	} else {
		delete(jb.active, lease)
	}
	for _, r := range reports {
		switch {
		case r.Error != "":
			jb.record(r.Index, outcome{err: fmt.Errorf("%s", r.Error)})
		case r.Result != nil:
			raw, err := r.Result.MarshalJSON()
			jb.record(r.Index, outcome{result: raw, err: err, cached: r.Cached})
		}
	}
	if u != nil && jb.requeue(u, fmt.Sprintf("lease %s returned without resolving all points", lease)) {
		jb.srv.ctot.TransientRequeues++
	}
	jb.settle()
	return late
}

// stop ends leasing: claims find nothing, heartbeats answer false and
// nothing is requeued, while the leases already out may still report.
func (jb *job) stop() {
	jb.stopped = true
	jb.pending = nil
	jb.settle()
}
