package serve

import (
	"errors"
	"fmt"
	"time"
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

// workUnit is one distinct key of a running job's grid, leased as its
// first point: that point's index, the later indices whose points repeat
// it, how many times it has been claimed, and the lease that currently
// owns it.
type workUnit struct {
	index   int
	repeats []int
	attempt int

	lease   string
	owner   string
	expires time.Time
}

// A running job's lease methods all require the owning Server's mu —
// they and the expiry scanner all mutate one job, and the Server lock is
// the single serialization point (lease traffic is a claim and a
// completion per point, nowhere near contention).
//
// The exactly-once-effect argument lives here: a job leases each
// distinct key once, as one unit, and outs[i] is resolved exactly once
// per point (record discards duplicates), so no matter how claim, expiry,
// late completion and requeue interleave, each point's outcome lands
// once — and because re-execution of an already-persisted point is a
// store hit, a re-leased unit whose first lease finished never simulates
// twice.

// resolved reports whether o holds a point's result or its error.
func (o outcome) resolved() bool { return o.result != nil || o.err != nil }

// record resolves point i with o, once: duplicates (a late completion of
// a lease that was already requeued and re-executed) are discarded, so
// whichever outcome arrives first wins and the merged outcome is stable.
func (jb *job) record(i int, o outcome) {
	if jb.outs[i].resolved() {
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

// resolve records o at every point of u: as reported at its first index,
// and at each repeat as the same result bytes served cached, or the same
// error.
func (jb *job) resolve(u *workUnit, o outcome) {
	jb.record(u.index, o)
	if o.err == nil {
		o.cached = true
	}
	for _, i := range u.repeats {
		jb.record(i, o)
	}
}

// settle closes finished once nothing more can be recorded.
func (jb *job) settle() {
	if !jb.settled && (jb.progress.Completed == len(jb.outs) || jb.stopped && len(jb.active) == 0) {
		jb.settled = true
		close(jb.finished)
	}
}

// claim hands the next pending unit to worker under a fresh lease, or
// returns nil when there is no work (drained queue, or job cancelled). A
// unit whose point was resolved while it waited — requeued, then resolved
// by its last lease's late completion — is dropped, not leased again.
func (jb *job) claim(worker string, now time.Time) *workUnit {
	if jb.stopped {
		return nil
	}
	for len(jb.pending) > 0 && jb.outs[jb.pending[0].index].resolved() {
		jb.pending = jb.pending[1:]
	}
	if len(jb.pending) == 0 {
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
	jb.granted[u.lease] = u
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

// requeue returns a unit whose point is still unresolved to the pending
// queue — or, once the attempt budget (ServerOptions.MaxAttempts) is
// spent, fails the point permanently with reason, why the unit's last
// lease ended, so the unit cannot bounce forever. It reports whether the
// point was still owed. A stopped job requeues nothing.
func (jb *job) requeue(u *workUnit, reason string) bool {
	if jb.stopped || jb.outs[u.index].resolved() {
		return false
	}
	if u.attempt >= jb.srv.opt.MaxAttempts {
		jb.srv.ctot.ExhaustedUnits++
		jb.resolve(u, outcome{err: fmt.Errorf("serve: giving up after %d lease attempts: %s", u.attempt, reason)})
		return true
	}
	jb.pending = append(jb.pending, u) // claim gives it a fresh lease
	jb.progress.Retries++
	return true
}

// complete applies a worker's outcome for a lease to the unit the lease
// was granted for; the worker names no point.
//
//   - A result or an error resolves the unit's points. Every reported
//     error is permanent: the simulator is deterministic.
//   - Neither (a draining worker's lease it never started) hands the
//     point back: requeue queues it at once, under the attempt budget.
//   - A late outcome — the lease expired and was requeued, or was handed
//     back — still resolves its point: record keeps the first copy, and
//     the slow-but-alive worker's result is not thrown away.
//   - A lease this job never granted resolves nothing.
//
// It returns the index of the lease's point, its unit's first (-1 if
// never granted), and whether the completion was late.
func (jb *job) complete(lease string, out PointOutcome) (i int, late bool) {
	u, granted := jb.granted[lease]
	_, owned := jb.active[lease]
	if late = !owned; late {
		jb.srv.ctot.LateReports++
	} else {
		delete(jb.active, lease)
	}
	if !granted {
		return -1, late
	}
	switch {
	case out.Error != "":
		jb.resolve(u, outcome{err: errors.New(out.Error)})
	case out.Result != nil:
		raw, err := out.Result.MarshalJSON()
		jb.resolve(u, outcome{result: raw, err: err, cached: out.Cached})
	}
	if owned && jb.requeue(u, fmt.Sprintf("lease %s returned without resolving its point", lease)) {
		jb.srv.ctot.TransientRequeues++
	}
	jb.settle()
	return u.index, late
}

// stop ends leasing: claims find nothing, heartbeats answer false and
// nothing is requeued, while the leases already out may still report.
func (jb *job) stop() {
	jb.stopped = true
	jb.pending = nil
	jb.settle()
}
