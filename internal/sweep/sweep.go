// Package sweep runs experiment grids — ordered lists of core.Config
// points — concurrently and deterministically. It is the execution engine
// behind every figure and table sweep in internal/experiments and the
// enabler for large scenario grids: points run on a worker pool sized by
// GOMAXPROCS (overridable), results come back in grid order regardless of
// completion order, per-point failures are captured instead of panicking,
// and an optional memo cache keyed by the full core.Config lets repeated
// points (shared baselines across figures) simulate exactly once.
//
// Because core.Run checks out a private network per call (an arena no
// other run holds, reset to the point; see core.Run), points are
// independent and the outcome of a grid is bit-identical whether it runs
// on 1 worker or N (see TestSweepDeterminism).
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"lapses/internal/core"
)

// Outcome is the terminal state of one grid point.
type Outcome struct {
	// Config is the point, copied from the grid in order.
	Config core.Config
	// Result is valid when Err is nil.
	Result core.Result
	// Err captures a point failure (configuration error, or ctx.Err()
	// for points the sweep never started). A point error does not stop
	// the rest of the grid.
	Err error
	// Cached reports that Result came from the memo cache rather than a
	// fresh simulation.
	Cached bool
}

// Cacher is the memo-cache seam of the sweep engine: Do returns the
// result for cfg, running run on a miss, and reports whether the result
// was served from a completed or in-flight prior point. Implementations
// must be safe for concurrent use and are responsible for single-flight
// duplicate suppression. *Cache is the in-memory implementation;
// serve.Store is the disk-backed content-addressed one, which makes
// memoization survive process restarts.
type Cacher interface {
	Do(ctx context.Context, cfg core.Config, run func(core.Config) (core.Result, error)) (core.Result, bool, error)
}

// RunFunc is the signature of Run. Remote executors — the lapses-serve
// client, which submits grids to a long-running service instead of
// simulating in-process — satisfy it, so everything built on grids can
// swap execution backends through Options.Exec.
type RunFunc func(ctx context.Context, grid []core.Config, opt Options) ([]Outcome, error)

// Options configure a Run.
type Options struct {
	// Workers bounds how many points simulate concurrently; <= 0 means
	// GOMAXPROCS (a run steps on one goroutine).
	Workers int
	// Cache, when non-nil, memoizes results by core.Config.Key so
	// repeated points simulate once. A cache may be shared across Runs
	// and across goroutines.
	Cache Cacher
	// Runner replaces core.Run, for tests that need scripted results or
	// controllable blocking. Nil means core.Run.
	Runner func(core.Config) (core.Result, error)
	// Exec, when non-nil, replaces Run for the composite helpers layered
	// on top of the engine — BisectAll (one call per lockstep round),
	// Bisect and the experiment grid runners — so a
	// remote backend executes every point. Run itself never consults
	// Exec (an executor that called back into the same Options would
	// recurse).
	Exec RunFunc
	// OnPoint, when non-nil, is invoked as each point completes, from
	// the worker goroutine that ran it (calls may be concurrent; i is
	// the grid index). serve's Client.Run calls it once per outcome of
	// a finished job, and the repo benchmark times completions through
	// it; the server records job progress without it.
	OnPoint func(i int, o Outcome)
}

func (o Options) runner() func(core.Config) (core.Result, error) {
	if o.Runner != nil {
		return o.Runner
	}
	return core.Run
}

// exec resolves the grid executor composite helpers dispatch through.
func (o Options) exec() RunFunc {
	if o.Exec != nil {
		return o.Exec
	}
	return Run
}

// PanicError is the per-point error a panicking simulation is converted
// into: sweep workers isolate panics so one bad point (say, a config
// whose algorithm identifier reaches the kernel's unknown-algorithm
// panic) yields an error Outcome while the rest of the grid — and the
// process hosting it, which may be a long-running server — survives.
type PanicError struct {
	// Value is the value the point panicked with.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: point panicked: %v", e.Value)
}

// safeRunner wraps run so a panic becomes a returned *PanicError.
func safeRunner(run func(core.Config) (core.Result, error)) func(core.Config) (core.Result, error) {
	return func(c core.Config) (res core.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				res, err = core.Result{}, &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		return run(c)
	}
}

// Run executes every point of grid and returns one Outcome per point, in
// grid order regardless of completion order.
//
// Point failures are per-point: Outcome.Err is set and the sweep
// continues, replacing the panic-on-error style of the old serial
// harness. A panicking point is recovered into a *PanicError Outcome
// the same way — the rest of the grid completes. Workers draw grid
// indices in order from a shared atomic counter, checking ctx before
// each draw. Cancelling ctx stops the drawing; points already drawn
// finish (core.Run is not interruptible), points never drawn carry
// ctx.Err(), and Run returns ctx.Err() alongside the partial outcomes.
func Run(ctx context.Context, grid []core.Config, opt Options) ([]Outcome, error) {
	outs := make([]Outcome, len(grid))
	for i := range grid {
		outs[i].Config = grid[i]
	}
	// Panic recovery wraps the runner underneath the cache, so a cache
	// leader that panics still resolves its in-flight entry (waiters get
	// the error instead of hanging on a never-closed channel).
	run := safeRunner(opt.runner())
	cache := opt.Cache

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(grid) {
		workers = len(grid)
	}
	var next atomic.Int64 // the next grid index to draw; draws past the end are spent
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(grid) {
					return
				}
				if cache != nil {
					outs[i].Result, outs[i].Cached, outs[i].Err = cache.Do(ctx, grid[i], run)
				} else {
					outs[i].Result, outs[i].Err = run(grid[i])
				}
				if opt.OnPoint != nil {
					opt.OnPoint(i, outs[i])
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := min(int(next.Load()), len(grid)); i < len(grid); i++ {
			outs[i].Err = err
		}
		return outs, err
	}
	return outs, nil
}
