package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"lapses/internal/core"
	"lapses/internal/sweep"
)

// Worker is one cluster worker instance: a claim loop against one or
// more coordinators that runs each claimed lease, one grid point, on its
// own goroutine, at most Workers at once. A lease's point runs through
// the worker's Store.Do, inside sweep.Run for its panic isolation, so
// every completed point is durable the moment it finishes — a worker
// killed mid-lease (kill -9 included) loses only its in-flight points,
// and the re-execution of a requeued lease whose point was persisted is
// served straight from the store, simulating nothing twice.
//
// While a lease runs, a background goroutine heartbeats it at the
// coordinator's advertised cadence. A heartbeat answered with ok=false
// (the lease expired and was requeued, the job ended, or the coordinator
// restarted) abandons the point if it has not started; the completion is
// then late, and the coordinator records a result idempotently.
// Cancelling Run's context is the graceful drain: running points finish
// and persist and are reported, and a point not yet started is completed
// with no outcome, which hands it back: the coordinator requeues it
// immediately instead of waiting out the TTL. The worker and its
// coordinators must be one build: Run stops at a grant in another form.
type Worker struct {
	// ID is the worker's stable identity in coordinator logs and lease
	// ownership (required).
	ID string
	// Coordinators are the coordinator base URLs, tried in order on
	// every claim until one answers (required, at least one).
	Coordinators []string
	// Store is the worker's result store — the shared cluster directory,
	// or a private one merged coordinator-side on completion (required).
	Store *Store
	// Workers is how many leases the worker holds and runs at once, so
	// how many points it simulates at once (<= 0: GOMAXPROCS). It claims
	// only while one of them is free.
	Workers int
	// HTTP is the transport (nil: http.DefaultClient).
	HTTP *http.Client
	// Runner replaces core.Run per point — the test seam.
	Runner func(core.Config) (core.Result, error)
	// IdleWait is the base wait between claim rounds while no coordinator
	// is reachable (default 250ms; grows with jittered backoff, capped at
	// 8x). A reachable coordinator with no work holds the claim instead,
	// and the worker claims again as soon as it is answered.
	IdleWait time.Duration
	// Verbose, when non-nil, receives one line per lease executed.
	Verbose io.Writer

	local peer // set instead of Coordinators for a standalone server's Worker
}

// peer is a coordinator as a worker sees it: a *Client, or a standalone
// server called in-process.
type peer interface {
	Claim(ctx context.Context, worker string, wait time.Duration) (ClaimResponse, error)
	Heartbeat(ctx context.Context, lease, worker string) (bool, error)
	Complete(ctx context.Context, lease, job, worker string, out PointOutcome) (CompleteResponse, error)
}

func (w *Worker) validate() error {
	if w.ID == "" {
		return fmt.Errorf("serve: worker needs an ID")
	}
	if len(w.Coordinators) == 0 && w.local == nil {
		return fmt.Errorf("serve: worker needs at least one coordinator URL")
	}
	if w.Store == nil {
		return fmt.Errorf("serve: worker needs a result store")
	}
	return nil
}

func (w *Worker) idle() time.Duration {
	if w.IdleWait > 0 {
		return w.IdleWait
	}
	return 250 * time.Millisecond
}

// claim asks each coordinator in turn, starting from peers[cur], the
// last one that answered, for a lease. Transport errors rotate to the
// next peer; a reachable coordinator with no work holds the claim until
// it has some (or its hold runs out), which ends the round, as does a
// refusal. It returns the index of the peer that answered.
func (w *Worker) claim(ctx context.Context, peers []peer, cur int) (int, ClaimResponse, error) {
	hold := (&Client{HTTP: w.HTTP}).hold()
	var lastErr error
	for k := range peers {
		i := (cur + k) % len(peers)
		resp, err := peers[i].Claim(ctx, w.ID, hold)
		if err != nil && !refused(err) {
			lastErr = err
			continue
		}
		return i, resp, err
	}
	return cur, ClaimResponse{}, lastErr
}

// refused reports whether a coordinator refused a claim (400), which no
// retry changes: its form or its semantics version is another build's.
func refused(err error) bool {
	var ae *APIStatusError
	return errors.As(err, &ae) && ae.Code == http.StatusBadRequest
}

// Run claims and executes leases until ctx is cancelled, then drains:
// each in-flight lease's running point finishes and persists, its
// outcome is reported, and Run returns ctx.Err(). It claims one lease at
// a time, and only while it has a free slot of its Workers, which the
// lease holds until its completion has been sent: a worker never holds a
// lease it cannot start while another worker idles. A grant with no
// point comes from a coordinator of an older build, which leased arrays
// of points: Run neither runs nor reports it, lets the leases in flight
// finish, and returns an error naming it. So does a refused claim.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.validate(); err != nil {
		return err
	}
	var peers []peer
	if w.local != nil {
		peers = append(peers, w.local)
	}
	for _, base := range w.Coordinators {
		peers = append(peers, &Client{Base: base, HTTP: w.HTTP})
	}
	n := w.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	slots := make(chan struct{}, n)
	var wg sync.WaitGroup
	var stop error
	cur, misses := 0, 0
	for stop == nil && ctx.Err() == nil {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			continue
		}
		i, grant, err := w.claim(ctx, peers, cur)
		cur = i
		switch {
		case refused(err):
			<-slots
			stop = fmt.Errorf("serve: worker %s: %w", w.ID, err)
		case err != nil:
			// No coordinator reachable: back off, jittered so a fleet of
			// orphaned workers doesn't retry in step.
			<-slots
			misses++
			sleepCtx(ctx, backoff(w.idle(), 8*w.idle(), misses))
		case grant.Lease == "":
			// No work. A coordinator that held the claim says RetryMS 0
			// (the wait already happened there); one that did not — it is
			// draining, or predates held claims — says when to come back.
			<-slots
			misses = 0
			sleepCtx(ctx, time.Duration(grant.RetryMS)*time.Millisecond)
		case grant.Point == nil:
			<-slots
			stop = fmt.Errorf(`serve: worker %s: lease %s came with no "point": its coordinator is of an older build; run the coordinator and its workers from one build`, w.ID, grant.Lease)
		default:
			misses = 0
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.execute(ctx, peers[i], grant)
				<-slots // once reported: the next claim follows the completion
			}()
		}
	}
	wg.Wait()
	return cmp.Or(stop, ctx.Err())
}

// execute runs one lease's point (or abandons it) and reports its
// outcome back to the coordinator.
func (w *Worker) execute(ctx context.Context, co peer, g ClaimResponse) {
	out := w.run(ctx, co, g)
	// Report on a fresh bounded context: the whole point of the drain
	// path is delivering this outcome after ctx was cancelled. If the
	// completion cannot be delivered, a result is still durable in the
	// store and the TTL expiry requeues the lease.
	rctx, rcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer rcancel()
	resp, err := co.Complete(rctx, g.Lease, g.Job, w.ID, out)
	if w.Verbose == nil {
		return
	}
	what := "handed back"
	switch {
	case err != nil:
		what = fmt.Sprintf("not delivered: %v", err)
	case out.Error != "":
		what = "failed"
	case out.Cached:
		what = "cached"
	case out.Result != nil:
		what = "simulated"
	}
	if resp.Late {
		what += ", late"
	}
	fmt.Fprintf(w.Verbose, "[worker %s lease %s: point %d %s]\n", w.ID, g.Lease, g.Index, what)
}

// run answers a lease's point through the Store while a background
// goroutine heartbeats the lease, and returns its outcome: the zero
// outcome if the point never started (drain or lease loss).
func (w *Worker) run(ctx context.Context, co peer, g ClaimResponse) PointOutcome {
	// A config that fails validation is a permanent failure — retrying a
	// malformed point cannot help — and never reaches the simulator.
	cfg, err := g.Point.Config()
	if err != nil {
		return PointOutcome{Error: err.Error()}
	}

	leaseCtx, cancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	defer func() {
		cancel()
		<-hbDone
	}()
	hbEvery := time.Duration(g.HeartbeatMS) * time.Millisecond
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	go func() {
		defer close(hbDone)
		ticker := time.NewTicker(hbEvery)
		defer ticker.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-ticker.C:
				hctx, hc := context.WithTimeout(leaseCtx, hbEvery)
				ok, err := co.Heartbeat(hctx, g.Lease, w.ID)
				hc()
				if err == nil && !ok {
					// The lease is gone; abandon it. Transport
					// errors are NOT abandonment — the coordinator may
					// be mid-restart, and if it stays silent past the
					// TTL it requeues the lease itself.
					cancel()
					return
				}
			}
		}
	}()

	simulate := w.Runner
	if simulate == nil {
		simulate = core.Run
	}
	var hit bool
	outs, _ := sweep.Run(leaseCtx, []core.Config{cfg}, sweep.Options{Workers: 1, Runner: func(c core.Config) (res core.Result, err error) {
		res, hit, err = w.Store.Do(leaseCtx, c, simulate)
		return res, err
	}})
	switch o := outs[0]; {
	case o.Err == nil:
		return PointOutcome{Result: &o.Result, Cached: hit}
	case errors.Is(o.Err, context.Canceled) && leaseCtx.Err() != nil:
		// Never started: no outcome hands it back, so the coordinator
		// requeues it without burning the TTL.
		return PointOutcome{}
	default:
		// To a deterministic simulator any error, a recovered panic
		// included, is a property of the config: it fails the point.
		// (Out of memory is fatal in Go, not a panic: the lease TTL
		// covers it.)
		return PointOutcome{Error: o.Err.Error()}
	}
}
