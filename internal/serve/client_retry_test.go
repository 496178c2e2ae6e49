package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// flakyTransport fails the first n requests at the transport layer
// (connection-level errors, as from a restarting server), then passes
// everything through.
type flakyTransport struct {
	fails atomic.Int64
	calls atomic.Int64
	next  http.RoundTripper
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	f.calls.Add(1)
	if f.fails.Add(-1) >= 0 {
		return nil, fmt.Errorf("connection reset by peer")
	}
	if f.next != nil {
		return f.next.RoundTrip(r)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// fastRetry shortens the transport retry's backoff for the rest of the
// test. retryBase is package state, so a test calling this must not be
// parallel; sequential tests never overlap parallel ones.
func fastRetry(t *testing.T) {
	base := retryBase
	retryBase = time.Millisecond
	t.Cleanup(func() { retryBase = base })
}

// statusTransport answers every request with a fixed status code.
type statusTransport struct {
	code  int
	calls atomic.Int64
}

func (s *statusTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	s.calls.Add(1)
	return &http.Response{
		StatusCode: s.code,
		Body:       io.NopCloser(bytes.NewReader(nil)),
		Header:     http.Header{},
	}, nil
}

// TestClientRetriesTransportErrors: an idempotent request must survive a
// couple of connection-level failures (a server restart mid-poll) by
// retrying with backoff, without the caller seeing anything.
func TestClientRetriesTransportErrors(t *testing.T) {
	fastRetry(t)
	_, c := testServer(t, t.TempDir(), ServerOptions{Runner: scripted})
	ft := &flakyTransport{}
	ft.fails.Store(2)
	c.HTTP = &http.Client{Transport: ft}

	if _, err := c.StoreStats(context.Background()); err != nil {
		t.Fatalf("StoreStats did not survive two transport blips: %v", err)
	}
	if n := ft.calls.Load(); n != 3 {
		t.Fatalf("transport saw %d calls, want 3 (two failures + success)", n)
	}
}

// TestClientRetryBudgetExhausted: when the server never comes back, the
// retry loop must give up after its attempt budget and surface the
// transport error.
func TestClientRetryBudgetExhausted(t *testing.T) {
	fastRetry(t)
	ft := &flakyTransport{}
	ft.fails.Store(1 << 30)
	c := &Client{
		Base: "http://unreachable.invalid",
		HTTP: &http.Client{Transport: ft},
	}
	_, err := c.Status(context.Background(), "j000001")
	if err == nil {
		t.Fatal("Status succeeded against a dead transport")
	}
	if n := ft.calls.Load(); n != retryAttempts {
		t.Fatalf("transport saw %d calls, want exactly the %d-attempt budget", n, retryAttempts)
	}
}

// TestClientCancellationNotTransient: a request killed by its own
// context must not be retried — a deliberate cancellation is not a
// server fault, and retrying it would burn a backoff cycle before the
// retry loop noticed the dead ctx.
func TestClientCancellationNotTransient(t *testing.T) {
	t.Parallel()
	ft := &flakyTransport{}
	ft.fails.Store(1 << 30)
	c := &Client{
		Base: "http://unreachable.invalid",
		HTTP: &http.Client{Transport: ft},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Status(ctx, "j000001")
	if err == nil {
		t.Fatal("Status succeeded on a cancelled context")
	}
	if n := ft.calls.Load(); n != 1 {
		t.Fatalf("cancelled request was retried: %d attempts", n)
	}
}

// TestClientDoesNotRetryClientErrors: 4xx responses are deterministic —
// retrying a malformed request cannot help, and retrying 429 would
// fight Submit's Retry-After loop. Exactly one request may go out.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	t.Parallel()
	st := &statusTransport{code: http.StatusNotFound}
	c := &Client{
		Base: "http://example.invalid",
		HTTP: &http.Client{Transport: st},
	}
	_, err := c.Status(context.Background(), "nope")
	var ae *APIStatusError
	if !errors.As(err, &ae) || ae.Code != http.StatusNotFound {
		t.Fatalf("want 404 APIStatusError, got %v", err)
	}
	if n := st.calls.Load(); n != 1 {
		t.Fatalf("client retried a 404: %d requests", n)
	}
}

// TestClientRetriesGatewayErrors: 503s (a proxy in front of a draining
// server) are retried like transport failures.
func TestClientRetriesGatewayErrors(t *testing.T) {
	fastRetry(t)
	st := &statusTransport{code: http.StatusServiceUnavailable}
	c := &Client{
		Base: "http://example.invalid",
		HTTP: &http.Client{Transport: st},
	}
	_, err := c.Status(context.Background(), "j000001")
	var ae *APIStatusError
	if !errors.As(err, &ae) || ae.Code != http.StatusServiceUnavailable {
		t.Fatalf("want 503 APIStatusError, got %v", err)
	}
	if n := st.calls.Load(); n != retryAttempts {
		t.Fatalf("503 saw %d attempts, want the full %d-attempt budget", n, retryAttempts)
	}
}

// TestClientMalformedURLNotRetried: a base URL that does not parse fails
// before any request is sent, and its *url.Error is not mistaken for a
// transport failure worth retrying.
func TestClientMalformedURLNotRetried(t *testing.T) {
	t.Parallel()
	c := &Client{Base: "http://bad host"}
	ctx := context.Background()
	err := c.do(ctx, http.MethodGet, "/v1/store", nil, nil)
	if err == nil || retryable(ctx, err) {
		t.Fatalf("malformed base URL: err=%v, want an error that is not retried", err)
	}
}
