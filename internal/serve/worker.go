package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lapses/internal/core"
	"lapses/internal/sweep"
)

// Worker is one cluster worker instance: a claim loop against one or
// more coordinators that runs each claimed lease on its own goroutine, at
// most Workers points at once across them. A lease's points run through
// sweep.Run with the worker's Store as the cache layer, so every
// completed point is durable the moment it finishes — a worker killed
// mid-lease (kill -9 included) loses only its in-flight points, and the
// re-execution of its requeued lease serves the persisted ones straight
// from the store, simulating nothing twice.
//
// While a lease runs, a background goroutine heartbeats it at the
// coordinator's advertised cadence. A heartbeat answered with ok=false
// (the lease expired and was requeued, the job ended, or the coordinator
// restarted) aborts the unit at the next point boundary; the final
// completion is then late, and the coordinator merges its successes
// idempotently. Cancelling Run's context is the graceful drain: the
// current unit stops dispatching new points, in-flight points finish and
// persist, finished points are reported, and unstarted ones are left out
// of the report, which hands them back: the coordinator requeues them
// immediately instead of waiting out the TTL.
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
	// Workers is how many points the worker runs at once across its
	// leases, and how many its leases may hold before it stops claiming
	// (<= 0: GOMAXPROCS): with 1-point units it runs Workers leases at
	// once, and one lease alone runs as wide as the worker.
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
	Complete(ctx context.Context, lease, job, worker string, reports []PointReport) (CompleteResponse, error)
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
// it has some (or its hold runs out), which ends the round. It returns
// the index of the peer that answered.
func (w *Worker) claim(ctx context.Context, peers []peer, cur int) (int, ClaimResponse, error) {
	hold := (&Client{HTTP: w.HTTP}).hold()
	var lastErr error
	for k := range peers {
		i := (cur + k) % len(peers)
		resp, err := peers[i].Claim(ctx, w.ID, hold)
		if err != nil {
			lastErr = err
			continue
		}
		return i, resp, nil
	}
	return cur, ClaimResponse{}, lastErr
}

// Run claims and executes leases until ctx is cancelled, then drains:
// each in-flight unit's running points finish and persist, its outcomes
// are reported, and Run returns ctx.Err(). It claims one lease at a time,
// and only while its unreported leases hold fewer than Workers points, so
// a worker never sits on a unit it cannot start while another worker
// idles.
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
	lim := &pointLimit{Store: w.Store, tokens: make(chan struct{}, n), freed: make(chan struct{}, 1)}
	var wg sync.WaitGroup
	cur, misses := 0, 0
	for lim.room(ctx) {
		i, grant, err := w.claim(ctx, peers, cur)
		cur = i
		switch {
		case err != nil:
			// No coordinator reachable: back off, jittered so a fleet of
			// orphaned workers doesn't retry in step.
			misses++
			sleepCtx(ctx, backoff(w.idle(), 8*w.idle(), misses))
		case grant.Lease == "":
			// No work. A coordinator that held the claim says RetryMS 0
			// (the wait already happened there); one that did not — it is
			// draining, or predates held claims — says when to come back.
			misses = 0
			sleepCtx(ctx, time.Duration(grant.RetryMS)*time.Millisecond)
		default:
			misses = 0
			lim.held.Add(int64(len(grant.Indices)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.execute(ctx, peers[i], grant, lim)
			}()
		}
	}
	wg.Wait()
	return ctx.Err()
}

// pointLimit is a worker's Store as its leases' sweeps see it, and the
// count that decides when the worker claims. A point takes one of the
// worker's tokens before it reads or simulates, so the worker runs at
// most cap(tokens) points at once across its leases. A point whose unit
// stops while it waits has not started: it carries the unit's ctx.Err()
// and is handed back. The wait is outside the Store, so a waiting point
// leads no flight another lease's point could join.
type pointLimit struct {
	*Store
	tokens chan struct{}
	held   atomic.Int64  // points in the worker's unreported leases
	freed  chan struct{} // signalled when held falls
}

// room waits until the worker's leases hold fewer points than it has
// tokens, and reports false once ctx ends.
func (l *pointLimit) room(ctx context.Context) bool {
	for ctx.Err() == nil && l.held.Load() >= int64(cap(l.tokens)) {
		select {
		case <-l.freed:
		case <-ctx.Done():
		}
	}
	return ctx.Err() == nil
}

// release ends a lease of k points.
func (l *pointLimit) release(k int) {
	l.held.Add(-int64(k))
	select {
	case l.freed <- struct{}{}:
	default:
	}
}

func (l *pointLimit) Do(ctx context.Context, cfg core.Config, run func(core.Config) (core.Result, error)) (core.Result, bool, error) {
	select {
	case l.tokens <- struct{}{}:
	case <-ctx.Done():
		return core.Result{}, false, ctx.Err()
	}
	defer func() { <-l.tokens }()
	return l.Store.Do(ctx, cfg, run)
}

// execute runs one leased unit to completion (or abandonment) and
// reports per-point outcomes back to the coordinator.
func (w *Worker) execute(ctx context.Context, co peer, g ClaimResponse, lim *pointLimit) {
	defer lim.release(len(g.Indices)) // once reported: the next claim follows the completion
	// Materialize the wire points. A config that fails validation is a
	// permanent failure — retrying a malformed point cannot help — and
	// never reaches the simulator.
	reports := make([]PointReport, 0, len(g.Points))
	var cfgs []core.Config
	var cfgIdx []int
	for j, p := range g.Points {
		if j >= len(g.Indices) {
			break
		}
		c, err := p.Config()
		if err != nil {
			reports = append(reports, PointReport{Index: g.Indices[j], Error: err.Error()})
			continue
		}
		cfgs = append(cfgs, c)
		cfgIdx = append(cfgIdx, g.Indices[j])
	}

	unitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbEvery := time.Duration(g.HeartbeatMS) * time.Millisecond
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		ticker := time.NewTicker(hbEvery)
		defer ticker.Stop()
		for {
			select {
			case <-unitCtx.Done():
				return
			case <-ticker.C:
				hctx, hc := context.WithTimeout(unitCtx, hbEvery)
				ok, err := co.Heartbeat(hctx, g.Lease, w.ID)
				hc()
				if err == nil && !ok {
					// The lease is gone; abandon the unit. Transport
					// errors are NOT abandonment — the coordinator may
					// be mid-restart, and if it stays silent past the
					// TTL it requeues the lease itself.
					cancel()
					return
				}
			}
		}
	}()

	outs, _ := sweep.Run(unitCtx, cfgs, sweep.Options{
		Workers: cap(lim.tokens),
		Cache:   lim,
		Runner:  w.Runner,
	})
	cancel()
	<-hbDone

	for j, o := range outs {
		idx := cfgIdx[j]
		switch {
		case o.Err == nil:
			res := o.Result
			reports = append(reports, PointReport{Index: idx, Result: &res, Cached: o.Cached})
		case errors.Is(o.Err, context.Canceled) && unitCtx.Err() != nil:
			// Never started (drain or lease loss): left out, so the
			// coordinator requeues it without burning the TTL.
		default:
			// To a deterministic simulator any error, a recovered panic
			// included, is a property of the config: it fails the point.
			// (Out of memory is fatal in Go, not a panic: the lease TTL
			// covers it.)
			reports = append(reports, PointReport{Index: idx, Error: o.Err.Error()})
		}
	}

	// Report on a fresh bounded context: the whole point of the drain
	// path is delivering these outcomes after ctx was cancelled. If the
	// completion cannot be delivered, the results are still durable in
	// the store and the TTL expiry requeues the lease.
	rctx, rcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer rcancel()
	resp, err := co.Complete(rctx, g.Lease, g.Job, w.ID, reports)
	if w.Verbose != nil {
		ncached, nerr := 0, 0
		for _, rep := range reports {
			if rep.Error != "" {
				nerr++
			} else if rep.Cached {
				ncached++
			}
		}
		nres := len(reports) - nerr
		switch {
		case err != nil:
			fmt.Fprintf(w.Verbose, "[worker %s lease %s: completion not delivered: %v]\n", w.ID, g.Lease, err)
		case resp.Late:
			fmt.Fprintf(w.Verbose, "[worker %s lease %s: late completion (%d ok, %d cached)]\n", w.ID, g.Lease, nres, ncached)
		default:
			fmt.Fprintf(w.Verbose, "[worker %s lease %s: %d points, %d cached, %d failed]\n", w.ID, g.Lease, nres, ncached, nerr)
		}
	}
}
