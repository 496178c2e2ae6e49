package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"lapses/internal/core"
	"lapses/internal/sweep"
)

// Worker is one cluster worker instance: a claim-execute-complete loop
// against one or more coordinators. Each claimed lease is simulated
// through sweep.Run with the worker's Store as the cache layer, so every
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
	// Workers is the sweep pool width per unit (<= 0: the sweep
	// default).
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

	local peer // set instead of Coordinators for a standalone server's slot
	cur   int  // index of the last coordinator that answered
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

// claim asks each coordinator in turn (starting from the last one that
// answered) for a lease. Transport errors rotate to the next peer; a
// reachable coordinator with no work holds the claim until it has some
// (or its hold runs out), which ends the round.
func (w *Worker) claim(ctx context.Context, peers []peer) (peer, ClaimResponse, error) {
	hold := (&Client{HTTP: w.HTTP}).hold()
	var lastErr error
	for k := range peers {
		i := (w.cur + k) % len(peers)
		co := peers[i]
		resp, err := co.Claim(ctx, w.ID, hold)
		if err != nil {
			lastErr = err
			continue
		}
		w.cur = i
		return co, resp, nil
	}
	return nil, ClaimResponse{}, lastErr
}

// Run claims and executes leases until ctx is cancelled, then drains:
// the in-flight unit's running points finish and persist, its outcomes
// are reported, and Run returns ctx.Err().
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
	misses := 0
	for ctx.Err() == nil {
		co, grant, err := w.claim(ctx, peers)
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
			w.execute(ctx, co, grant)
		}
	}
	return ctx.Err()
}

// execute runs one leased unit to completion (or abandonment) and
// reports per-point outcomes back to the coordinator.
func (w *Worker) execute(ctx context.Context, co peer, g ClaimResponse) {
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
		Workers: w.Workers,
		Cache:   w.Store,
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
		nres, ncached, nerr := 0, 0, 0
		for _, rep := range reports {
			switch {
			case rep.Error != "":
				nerr++
			case rep.Cached:
				ncached++
				nres++
			default:
				nres++
			}
		}
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
