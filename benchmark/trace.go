package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"lapses/internal/core"
	"lapses/internal/sweep"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's origin. Parent is the ID of the span that caused
// this one (0: none); Job groups the spans of one submitted grid.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Job    string             `json:"job,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// IDs are 1-based indexes into spans, so a parent always precedes its
// children. Safe for concurrent use (sweep workers, HTTP goroutines).
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	root   int // the span every other one descends from
}

// newTracer starts the clock and the root span.
func newTracer(root, job string) *tracer {
	t := &tracer{origin: time.Now()}
	t.root = t.start(root, 0, job)
	return t
}

func (t *tracer) start(name string, parent int, job string) int {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: now, End: now})
	return id
}

func (t *tracer) end(id int, attrs map[string]float64) {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Attrs = attrs
	t.mu.Unlock()
}

// adopt appends spans recorded by another tracer (a fresh-process round)
// under parent, shifting IDs and rebasing times onto this tracer's clock
// so the child's first span starts at base.
func (t *tracer) adopt(child []span, parent int, base int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	off := len(t.spans)
	for _, s := range child {
		s.ID += off
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += off
		}
		s.Start += base
		s.End += base
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

// selfTimes returns each span's duration minus the part of it its child
// spans cover (the union of their intervals, clipped to the parent), by
// span ID.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// checkTrace reports structural defects: a parent that does not exist,
// a child outside its parent's interval, a span that ends before it
// starts, or a negative self time.
func checkTrace(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if self[s.ID] < 0 {
			return fmt.Errorf("span %d (%s) has negative self time", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// scope is the span context the hooks of one traced round attach to:
// the hooks run on sweep workers and HTTP goroutines that are handed no
// context, so the current job's span is shared state. A nil *scope means
// the round is untraced and every hook constructor returns nil — the
// program then runs its default path with no wrapper installed.
type scope struct {
	tr    *tracer
	round int // the round span: parent of jobs, and of hooks firing outside any job

	mu  sync.Mutex
	job int
	nm  string
}

// begin opens a job span under the round and makes it current.
func (s *scope) begin(name string) int {
	if s == nil {
		return 0
	}
	id := s.tr.start("job", s.round, name)
	s.mu.Lock()
	s.job, s.nm = id, name
	s.mu.Unlock()
	return id
}

func (s *scope) finish(id int) {
	if s == nil {
		return
	}
	s.tr.end(id, nil)
	s.mu.Lock()
	s.job, s.nm = 0, ""
	s.mu.Unlock()
}

func (s *scope) current() (int, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.job == 0 {
		return s.round, ""
	}
	return s.job, s.nm
}

// simAttrs are the simulated quantities a core.Run span carries, so the
// per-layer numbers divide host time by work measured where it happened.
func simAttrs(c core.Config, r core.Result) map[string]float64 {
	nodes := 1
	for _, k := range c.Dims {
		nodes *= k
	}
	return map[string]float64{
		"nodes":     float64(nodes),
		"flit_hops": flitHops(c, r),
		"cycles":    float64(r.TotalCycles - r.SkippedCycles),
	}
}

// runner is the Runner hook (sweep.Options, serve.ServerOptions,
// serve.Worker): core.Run inside a point span whose parent is the
// current job.
func (s *scope) runner() func(core.Config) (core.Result, error) {
	if s == nil {
		return nil
	}
	return func(c core.Config) (core.Result, error) {
		parent, job := s.current()
		id := s.tr.start("core.Run", parent, job)
		r, err := core.Run(c)
		s.tr.end(id, simAttrs(c, r))
		return r, err
	}
}

// onPoint is the sweep.Options.OnPoint hook: a zero-length completion
// stamp per outcome handed back.
func (s *scope) onPoint() func(int, sweep.Outcome) {
	if s == nil {
		return nil
	}
	return func(i int, o sweep.Outcome) {
		parent, job := s.current()
		cached := 0.0
		if o.Cached {
			cached = 1
		}
		s.tr.end(s.tr.start("outcome", parent, job), map[string]float64{"index": float64(i), "cached": cached})
	}
}

// httpClient returns a client whose transport records one span per
// request under the current job (named by method and path, ended when
// the body is closed, carrying the bytes moved), or nil on an untraced
// round so the program falls back to http.DefaultClient.
func (s *scope) httpClient() *http.Client {
	if s == nil {
		return nil
	}
	return &http.Client{Transport: tracedTransport{tr: s.tr, parent: s.current}}
}

// httpClientUnder is httpClient for requests a long-lived span causes
// (a cluster worker's claim loop), which may outlive any one job.
func (s *scope) httpClientUnder(parent int, job string) *http.Client {
	if s == nil {
		return nil
	}
	return &http.Client{Transport: tracedTransport{tr: s.tr, parent: func() (int, string) { return parent, job }}}
}

type tracedTransport struct {
	tr     *tracer
	parent func() (int, string)
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, job := t.parent()
	id := t.tr.start("http "+req.Method+" "+req.URL.Path, parent, job)
	sent := float64(max(req.ContentLength, 0))
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.tr.end(id, map[string]float64{"bytes": sent})
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func(n int64) {
		t.tr.end(id, map[string]float64{"bytes": sent + float64(n)})
	}}
	return resp, nil
}

// countedBody counts the response bytes read and reports them once, on
// Close.
type countedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
