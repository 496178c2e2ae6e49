package sweep

import (
	"context"
	"sync"

	"lapses/internal/core"
)

// Cache memoizes simulation results by core.Config.Key. Lookups are
// single-flight: concurrent requests for the same key wait for the first
// one to finish instead of simulating twice, so a grid containing
// duplicate points simulates each unique point exactly once even when the
// duplicates land on different workers simultaneously. Errors are not
// cached (a later request retries), though waiters of a failing in-flight
// point do receive its error. The zero value of *Cache (nil) disables
// memoization.
type Cache struct {
	mu     sync.Mutex
	m      map[string]*entry
	hits   int64
	misses int64
}

type entry struct {
	done chan struct{} // closed once res/err are final
	res  core.Result
	err  error
}

// NewCache returns an empty memo cache.
func NewCache() *Cache { return &Cache{m: map[string]*entry{}} }

// Hits counts lookups actually served a result from a completed or
// in-flight prior point (waiters that abort on ctx or inherit a leader's
// error do not count).
func (c *Cache) Hits() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses counts lookups that had to simulate.
func (c *Cache) Misses() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Len is the number of successfully cached results.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Do returns the memoized result for cfg, running run on a miss. A nil
// receiver runs directly, so a nil Options.Cache memoizes nothing. The
// boolean reports a cache hit. Waiting for an in-flight duplicate
// respects ctx.
func (c *Cache) Do(ctx context.Context, cfg core.Config, run func(core.Config) (core.Result, error)) (core.Result, bool, error) {
	if c == nil {
		res, err := run(cfg)
		return res, false, err
	}
	key := cfg.Key()
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
			if e.err != nil {
				// The leader failed; the waiter was not served a
				// cached result.
				return e.res, false, e.err
			}
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return e.res, true, nil
		case <-ctx.Done():
			return core.Result{}, false, ctx.Err()
		}
	}
	e := &entry{done: make(chan struct{})}
	c.m[key] = e
	c.misses++
	c.mu.Unlock()

	e.res, e.err = run(cfg)
	if e.err != nil {
		c.mu.Lock()
		delete(c.m, key)
		c.mu.Unlock()
	}
	close(e.done)
	return e.res, false, e.err
}
