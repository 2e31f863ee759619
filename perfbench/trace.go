package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"evoprot/internal/storage"
)

// span is one timed call across a layer boundary. Spans of one job share
// its id as their trace id; Parent 0 marks a root.
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer holds spans in memory until the run writes them out. Nested
// spans opened through begin take the innermost open span as parent —
// exact on the sequential replays, which is where nesting is used. Spans
// recorded from the daemon's concurrent goroutines are roots of their
// job's trace.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	trace string // trace id for spans opened through begin
	stack []int64
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setTrace names the trace subsequent begin spans belong to.
func (t *tracer) setTrace(id string) {
	t.mu.Lock()
	t.trace = id
	t.mu.Unlock()
}

func (t *tracer) current() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trace
}

// begin opens a nested span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	t.mu.Lock()
	t.next++
	s := span{Trace: t.trace, ID: t.next, Name: name, Start: t.now()}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1]
	}
	t.stack = append(t.stack, s.ID)
	t.mu.Unlock()
	return func() {
		s.End = t.now()
		t.mu.Lock()
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i] == s.ID {
				t.stack = append(t.stack[:i], t.stack[i+1:]...)
				break
			}
		}
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// record adds a finished root span of trace.
func (t *tracer) record(trace, name string, start time.Time, end time.Time, bytes int64) {
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{
		Trace: trace, ID: t.next, Name: name, Bytes: bytes,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the time
// its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return self
}

// write stores every span, ordered by start, as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	data, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opStats accumulates calls, time and bytes of one operation.
type opStats struct {
	calls atomic.Int64
	nanos atomic.Int64
	bytes atomic.Int64
}

func (o *opStats) add(d time.Duration, bytes int) {
	o.calls.Add(1)
	o.nanos.Add(int64(d))
	o.bytes.Add(int64(bytes))
}

func (o *opStats) ms() float64 { return float64(o.nanos.Load()) / 1e6 }

// timedStore decorates the filesystem store with per-operation timing.
// It also remembers when each event append of each job returned, so the
// client's read time of event k yields event k's delivery latency.
type timedStore struct {
	fs *storage.FS
	tr *tracer

	put, append_, get, checkpoint opStats

	mu       sync.Mutex
	appended map[string][]time.Time // job -> return time of each event append
}

func newTimedStore(fs *storage.FS, tr *tracer) *timedStore {
	return &timedStore{fs: fs, tr: tr, appended: make(map[string][]time.Time)}
}

// Path keeps the filesystem store's storage.Pather capability visible
// through the decorator, so the daemon behaves exactly as over the bare
// store.
func (s *timedStore) Path(job, key string) string { return s.fs.Path(job, key) }

func (s *timedStore) Put(job, key string, data []byte) error {
	t := time.Now()
	err := s.fs.Put(job, key, data)
	end := time.Now()
	s.put.add(end.Sub(t), len(data))
	if key == checkpointKey {
		s.checkpoint.add(end.Sub(t), len(data))
	}
	s.tr.record(job, "storage.put", t, end, int64(len(data)))
	return err
}

func (s *timedStore) Get(job, key string) ([]byte, error) {
	t := time.Now()
	data, err := s.fs.Get(job, key)
	end := time.Now()
	s.get.add(end.Sub(t), 0)
	s.tr.record(job, "storage.get", t, end, int64(len(data)))
	return data, err
}

func (s *timedStore) Append(job, key string, data []byte) error {
	t := time.Now()
	err := s.fs.Append(job, key, data)
	end := time.Now()
	s.append_.add(end.Sub(t), len(data))
	s.tr.record(job, "storage.append", t, end, int64(len(data)))
	if key == eventsKey && len(data) > 0 && err == nil {
		// One append per event: the feed writes each event line whole.
		s.mu.Lock()
		s.appended[job] = append(s.appended[job], end)
		s.mu.Unlock()
	}
	return err
}

func (s *timedStore) Open(job, key string) (io.ReadCloser, error) { return s.fs.Open(job, key) }

func (s *timedStore) Truncate(job, key string, size int64) error {
	return s.fs.Truncate(job, key, size)
}

func (s *timedStore) List() ([]string, error) { return s.fs.List() }

func (s *timedStore) Delete(job string) error { return s.fs.Delete(job) }

// appendTimes returns the return times of job's event appends.
func (s *timedStore) appendTimes(job string) []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Time(nil), s.appended[job]...)
}

// Keys of the persisted job layout the decorators classify by.
const (
	checkpointKey = "job.ckpt"
	eventsKey     = "events.ndjson"
)

// timedTransport decorates the cluster worker's HTTP transport: every
// lease and remote-store call is timed and its request and response
// bytes counted.
type timedTransport struct {
	next http.RoundTripper
	tr   *tracer

	remote, acquire, renew opStats
}

func newTimedTransport(next http.RoundTripper, tr *tracer) *timedTransport {
	return &timedTransport{next: next, tr: tr}
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	end := time.Now()
	d := end.Sub(start)
	bytes := int(max(req.ContentLength, 0))
	if resp != nil {
		bytes += int(max(resp.ContentLength, 0))
	}
	t.remote.add(d, bytes)
	path := req.URL.Path
	switch {
	case path == "/v1/lease":
		// Only granted leases: an empty long-poll times idle waiting.
		if resp != nil && resp.StatusCode == http.StatusOK {
			t.acquire.add(d, bytes)
		}
	case strings.HasSuffix(path, "/renew"):
		t.renew.add(d, bytes)
	}
	t.tr.record(traceOfPath(path), "cluster.remote "+req.Method, start, end, int64(bytes))
	return resp, err
}

// traceOfPath extracts the job id from a lease or store URL path.
func traceOfPath(path string) string {
	for _, prefix := range []string{"/v1/store/", "/v1/lease/"} {
		if rest, ok := strings.CutPrefix(path, prefix); ok {
			job, _, _ := strings.Cut(rest, "/")
			return job
		}
	}
	return "cluster"
}
