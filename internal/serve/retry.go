package serve

import (
	"context"
	"math/rand"
	"time"
)

// backoff returns the delay before retry n (n=1 is the first retry):
// base, doubled per retry and capped at limit, plus up to 50% random
// jitter so callers failing together don't retry together. The global
// rand source is used for jitter because retries fire from concurrent
// goroutines.
func backoff(base, limit time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// sleepCtx waits d (not at all when d <= 0) or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
