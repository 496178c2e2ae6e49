package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// TransientError marks a point failure as retryable: the simulation hit
// a condition expected to clear (resource pressure, a store read racing
// a concurrent writer) rather than a deterministic property of the
// configuration. The server requeues the lease unit of a transiently
// failed point; anything else (a config error, a panic, a saturation
// verdict) fails the point immediately — retrying a deterministic
// simulator on the same inputs cannot change the answer.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string { return fmt.Sprintf("transient: %v", e.Err) }

func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as retryable. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether err carries a TransientError anywhere in
// its chain.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// RetryPolicy bounds how a Client retries requests that failed
// transiently.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request, first
	// included (1 disables retry).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it, capped at MaxBackoff (default 2s), with up to 50%
	// random jitter added so requests failing together don't retry
	// together.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

func (p RetryPolicy) normalize() RetryPolicy {
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// backoff returns the delay before retry attempt n (n=1 is the first
// retry), jittered. The global rand source is used for jitter because
// retries fire from concurrent goroutines.
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < n && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
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
