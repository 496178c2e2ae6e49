package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"lapses/internal/core"
	"lapses/internal/jsonscan"
	"lapses/internal/sweep"
)

// Client talks to a lapses-serve server. Its Run method satisfies
// sweep.RunFunc, so plugging a Client into sweep.Options.Exec routes
// every grid — experiment figures, bisection probes — through the
// server and its durable store instead of simulating in-process.
type Client struct {
	// Base is the server URL, e.g. "http://localhost:8080".
	Base string
	// HTTP is the transport (nil: http.DefaultClient).
	HTTP *http.Client
	// PollInterval is the least time between two of Wait's status
	// requests, or of Run's results requests (default 150ms). A server
	// that holds the request (wait_ms) spends far longer than this inside
	// each one, so it only paces them against a server that answers at
	// once: one that predates wait_ms, or one that is draining.
	PollInterval time.Duration
	// PollCap is ignored: Wait no longer backs off, the server holds the
	// request instead. The field remains so existing callers compile.
	PollCap time.Duration
	// Verbose, when non-nil, receives one summary line per completed
	// job ("[serve job j000001: 88 points, 88 cached, 0 simulated,
	// 0 failed]") — the store-hit evidence the CI smoke test greps.
	Verbose io.Writer
}

// The transport retry wrapped around every idempotent request (Submit,
// Status, Results, Cancel, StoreStats and Complete): retryAttempts tries
// in all, the first retry after retryBase, each further one doubled up
// to retryMax and jittered — about 3 s of waiting, enough to ride out a
// server restart.
const (
	retryAttempts = 5
	retryMax      = 2 * time.Second
)

// retryBase is the delay before the first transport retry; a variable
// only so tests can shorten it.
var retryBase = 200 * time.Millisecond

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) poll() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 150 * time.Millisecond
}

// do issues one JSON request and decodes the response into out (when
// non-nil). Non-2xx responses are returned as *APIStatusError carrying
// the server's error message.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("serve client: %w", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		// %v: a malformed URL's *url.Error must not read as a transport
		// failure to retryable.
		return fmt.Errorf("serve client: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("serve client: %s %s: %w", method, path, err)
	}
	defer func() {
		// Read what is left before closing: a chunked body's terminator is
		// still unread after Decode, and net/http reuses a connection only
		// when its last response was read to the end. The drain is bounded,
		// so a peer that keeps streaming costs the connection, not a hang.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}()
	if resp.StatusCode >= 300 {
		var ae apiError
		json.NewDecoder(resp.Body).Decode(&ae)
		if ae.Error == "" {
			ae.Error = resp.Status
		}
		return &APIStatusError{Code: resp.StatusCode, Message: ae.Error, RetryAfter: retryAfter(resp)}
	}
	if out == nil {
		return nil
	}
	if res, ok := out.(*JobResults); ok {
		var body []byte
		if body, err = io.ReadAll(resp.Body); err == nil {
			err = decodeResults(body, res)
		}
	} else {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if err != nil {
		return fmt.Errorf("serve client: %s %s: decoding response: %w", method, path, err)
	}
	return nil
}

// retryable reports whether a failed request is worth sending again:
// a transport failure (the *url.Error http.Client.Do returns for a
// refused, reset or timed-out connection — the request may never have
// reached the server) or a gateway 502/503/504. A request killed by its
// own context is not a server fault and is not retried, nor is any other
// status (429 included: Submit's Retry-After loop owns that) or a
// response that failed to decode.
func retryable(ctx context.Context, err error) bool {
	var ae *APIStatusError
	if errors.As(err, &ae) {
		switch ae.Code {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	var ue *url.Error
	return errors.As(err, &ue) && ctx.Err() == nil &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// doRetry is do wrapped in the transport retry: a retryable failure is
// sent again after a jittered, growing backoff, and the last error is
// returned once retryAttempts are spent or ctx expires.
func (c *Client) doRetry(ctx context.Context, method, path string, body, out any) error {
	for n := 1; ; n++ {
		err := c.do(ctx, method, path, body, out)
		if err == nil || n == retryAttempts || !retryable(ctx, err) {
			return err
		}
		sleepCtx(ctx, backoff(retryBase, retryMax, n))
		if ctx.Err() != nil {
			return err
		}
	}
}

// APIStatusError is a non-2xx server response.
type APIStatusError struct {
	Code       int
	Message    string
	RetryAfter time.Duration // from the Retry-After header, if any
}

func (e *APIStatusError) Error() string {
	return fmt.Sprintf("serve client: server returned %d: %s", e.Code, e.Message)
}

func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// Health checks the server is up and accepting work.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// StoreStats fetches the server's store counters.
func (c *Client) StoreStats(ctx context.Context) (StoreStats, error) {
	var st StoreStats
	err := c.doRetry(ctx, http.MethodGet, "/v1/store", nil, &st)
	return st, err
}

// Submit sends one job and returns its accepted status. Backpressure
// (429) is absorbed: the client waits the server's Retry-After (or 1s)
// and resubmits until ctx expires.
func (c *Client) Submit(ctx context.Context, points []Point) (JobStatus, error) {
	req := jobRequest{Points: points}
	for {
		var st JobStatus
		// Submitting the same points twice is harmless — the server keys
		// results by config, so a retried submit after an ambiguous
		// transport failure costs at worst a duplicate job whose points
		// are all store hits. That makes Submit safe to route through
		// the transport-retry loop.
		err := c.doRetry(ctx, http.MethodPost, "/v1/jobs", req, &st)
		if err == nil {
			return st, nil
		}
		var ae *APIStatusError
		if !errors.As(err, &ae) || ae.Code != http.StatusTooManyRequests {
			return JobStatus{}, err
		}
		wait := ae.RetryAfter
		if wait <= 0 {
			wait = time.Second
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return JobStatus{}, fmt.Errorf("serve client: giving up on backpressured submit: %w", ctx.Err())
		}
	}
}

// hold is how long this client lets the server hold a request (sent as
// wait_ms): the server's own cap, or half the transport's timeout when
// that is shorter, so a held request is answered before the transport
// gives up on it.
func (c *Client) hold() time.Duration {
	if t := c.httpClient().Timeout; t > 0 && t/2 < maxHold {
		return t / 2
	}
	return maxHold
}

// Status fetches a job's progress.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	return c.status(ctx, id, 0)
}

// status is Status with wait_ms: the server answers when the job is
// terminal or after hold, whichever comes first.
func (c *Client) status(ctx context.Context, id string, hold time.Duration) (JobStatus, error) {
	var st JobStatus
	err := c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+id+waitQuery(hold), nil, &st)
	return st, err
}

// waitQuery is the query string asking the server to hold a request up
// to hold (none when hold is 0).
func waitQuery(hold time.Duration) string {
	if hold <= 0 {
		return ""
	}
	return "?wait_ms=" + strconv.FormatInt(hold.Milliseconds(), 10)
}

// Results fetches a terminal job's per-point outcomes.
func (c *Client) Results(ctx context.Context, id string) (JobResults, error) {
	return c.results(ctx, id, 0)
}

// results is Results with wait_ms: the server answers when the job is
// terminal, or with 409 once hold passes and it still is not.
func (c *Client) results(ctx context.Context, id string, hold time.Duration) (JobResults, error) {
	var res JobResults
	err := c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+id+"/results"+waitQuery(hold), nil, &res)
	return res, err
}

// Cancel requests cancellation of a job. Cancelling is idempotent
// server-side, so it rides the transport-retry loop too.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.doRetry(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait blocks until a job reaches a terminal state or ctx expires. It
// asks for the status with wait_ms, so the server holds each request
// until the job finishes and Wait returns as soon as it does. Against a
// server that answers at once its requests are PollInterval apart. When
// ctx expires the job is cancelled server-side before Wait returns.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.await(ctx, id, func(hold time.Duration) (bool, error) {
		var err error
		st, err = c.status(ctx, id, hold)
		return err == nil && st.Terminal(), err
	})
	return st, err
}

// await repeats ask, a request the server holds for up to the hold it is
// given, until ask reports the job terminal or fails. A long job costs one
// request per hold, not one per poll interval. A reply that comes back
// non-terminal sooner than PollInterval was not held, and await sleeps
// out the rest of the interval before asking again. When ctx expires the
// job is cancelled server-side before returning, so abandoned client
// contexts don't leave grids burning server cycles.
func (c *Client) await(ctx context.Context, id string, ask func(hold time.Duration) (bool, error)) error {
	hold := c.hold()
	for {
		asked := time.Now()
		done, err := ask(hold)
		if done {
			return nil
		}
		if err == nil {
			sleepCtx(ctx, c.poll()-time.Since(asked))
		}
		if ctx.Err() != nil {
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			c.Cancel(cctx, id)
			cancel()
			return ctx.Err()
		}
		if err != nil {
			return err
		}
	}
}

// Run executes grid on the server: serialize, submit (absorbing
// backpressure), hold the results request until the job is terminal, and
// map the outcomes back onto the original configs in order — two
// requests when the server holds, paced by PollInterval when it answers
// 409 at once. The results body is decoded in one strict pass, each
// result in place; the server has read each distinct stored key of the
// grid once. It satisfies sweep.RunFunc — set it as sweep.Options.Exec
// and every composite helper (experiment grids, bisection probes) runs
// remotely, one simulation per unique point ever, server-side.
//
// Per-point failures come back as Outcome.Err exactly as from
// sweep.Run. Run itself errors when the job could not complete —
// cancelled, interrupted by a server shutdown, or a transport failure.
func (c *Client) Run(ctx context.Context, grid []core.Config, opt sweep.Options) ([]sweep.Outcome, error) {
	points, err := PointsFromGrid(grid)
	if err != nil {
		return nil, fmt.Errorf("serve client: %w", err)
	}
	st, err := c.Submit(ctx, points)
	if err != nil {
		return nil, err
	}
	var res JobResults
	err = c.await(ctx, st.ID, func(hold time.Duration) (bool, error) {
		var err error
		res, err = c.results(ctx, st.ID, hold)
		var ae *APIStatusError
		if errors.As(err, &ae) && ae.Code == http.StatusConflict {
			return false, nil // not terminal yet
		}
		return err == nil, err
	})
	if err != nil {
		return nil, err
	}
	st = res.Status
	if c.Verbose != nil {
		fmt.Fprintf(c.Verbose, "[serve job %s: %d points, %d cached, %d simulated, %d failed]\n",
			st.ID, st.Total, st.Cached, st.Simulated, st.Failed)
	}
	if st.State == JobCancelled || st.State == JobInterrupted {
		return nil, fmt.Errorf("serve client: job %s was %s (%d of %d points completed); completed points are stored — resubmit to resume", st.ID, st.State, st.Completed, st.Total)
	}
	if len(res.Outcomes) != len(grid) {
		return nil, fmt.Errorf("serve client: job %s returned %d outcomes for %d points", st.ID, len(res.Outcomes), len(grid))
	}
	outs := make([]sweep.Outcome, len(grid))
	for i, po := range res.Outcomes {
		outs[i].Config = grid[i]
		switch {
		case po.Error != "":
			outs[i].Err = fmt.Errorf("%s", po.Error)
		case po.Result != nil:
			outs[i].Result = *po.Result
			outs[i].Cached = po.Cached
		default:
			outs[i].Err = fmt.Errorf("serve client: job %s point %d: no result and no error", st.ID, i)
		}
		if opt.OnPoint != nil {
			opt.OnPoint(i, outs[i])
		}
	}
	return outs, nil
}

// The member names of JobResults and of PointOutcome, in field order.
var (
	resultsNames = []string{"status", "outcomes"}
	outcomeNames = []string{"result", "error", "cached"}
)

// decodeResults reads body into res in one strict pass, accepting and
// producing exactly what json.Unmarshal into a JobResults does: members in
// any order, names matched exactly or else case-folded, unknown members
// skipped, null values, the last of duplicate members winning, nothing
// after the value but space. Each outcome's result is decoded in place by
// core.Result's decoder; the status, a few short members, goes to
// encoding/json.
func decodeResults(body []byte, res *JobResults) error {
	s := jsonscan.New(body)
	s.Space()
	if !s.Literal("null") {
		err := s.Object(resultsNames, func(i int) error {
			switch i {
			case 0:
				raw, err := s.Value()
				if err != nil {
					return err
				}
				return json.Unmarshal(raw, &res.Status)
			case 1:
				return decodeOutcomes(&s, &res.Outcomes)
			}
			_, err := s.Value()
			return err
		})
		if err != nil {
			return err
		}
	}
	return s.End()
}

// decodeOutcomes reads the array next in s into *outs as encoding/json
// reads an array into a slice: each element decodes into the one already
// at its index, which may be one the slice held within its capacity.
func decodeOutcomes(s *jsonscan.Scanner, outs *[]PointOutcome) error {
	if s.Literal("null") {
		*outs = nil
		return nil
	}
	n := 0
	err := s.Array(func() error {
		switch {
		case n < len(*outs):
		case n < cap(*outs):
			*outs = (*outs)[:n+1]
		default:
			*outs = append(*outs, PointOutcome{})
		}
		n++
		return decodeOutcome(s, &(*outs)[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		*outs = []PointOutcome{}
	}
	*outs = (*outs)[:n]
	return nil
}

// decodeOutcome reads the value next in s into o, as encoding/json reads
// one into a PointOutcome.
func decodeOutcome(s *jsonscan.Scanner, o *PointOutcome) error {
	if s.Literal("null") {
		return nil
	}
	return s.Object(outcomeNames, func(i int) error {
		switch {
		case i < 0:
			_, err := s.Value()
			return err
		case i == 0 && s.Literal("null"):
			o.Result = nil
			return nil
		case i == 0:
			if o.Result == nil {
				o.Result = new(core.Result)
			}
			return o.Result.DecodeJSON(s)
		}
		val, plain := s.Scalar()
		switch {
		case val == nil:
			return s.Syntax("a string, true, false or null")
		case string(val) == "null":
		case i == 1 && val[0] == '"':
			o.Error = jsonscan.Unquote(val, plain)
		case i == 2 && (string(val) == "true" || string(val) == "false"):
			o.Cached = val[0] == 't'
		default:
			return fmt.Errorf("outcome %s: unexpected %.24s", outcomeNames[i], val)
		}
		return nil
	})
}
