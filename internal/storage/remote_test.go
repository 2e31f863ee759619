package storage

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTestRemote serves be through a RemoteHandler on a test listener and
// returns a client for it.
func newTestRemote(t *testing.T, be Store, hooks RemoteHooks, opts ...RemoteOption) *Remote {
	t.Helper()
	srv := httptest.NewServer(NewRemoteHandler(be, hooks))
	t.Cleanup(srv.Close)
	return NewRemote(srv.URL, opts...)
}

// TestRemoteFencing: mutations pass only while the Authorize hook admits
// their token; refusals surface as ErrFenced and leave the backend
// untouched. Reads stay open — a fenced-out worker may still look, just
// not write.
func TestRemoteFencing(t *testing.T) {
	be := NewMem()
	var active atomic.Value
	active.Store("tok-1")
	hooks := RemoteHooks{Authorize: func(job, token string) (func(), error) {
		if token != active.Load().(string) {
			return nil, errors.New("job " + job + ": lease token rejected")
		}
		return nil, nil
	}}
	token := "tok-1"
	rt := newTestRemote(t, be, hooks, RemoteWithToken(func(string) string { return token }))

	if err := rt.Put("j", "status.json", []byte("v1")); err != nil {
		t.Fatalf("authorized put: %v", err)
	}
	if err := rt.Append("j", "events.ndjson", []byte("e1\n")); err != nil {
		t.Fatalf("authorized append: %v", err)
	}

	// The lease moves to a new holder; the old token is now fenced out of
	// every mutation, while reads keep working.
	active.Store("tok-2")
	if err := rt.Put("j", "status.json", []byte("v2")); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced put: %v, want ErrFenced", err)
	}
	if err := rt.Append("j", "events.ndjson", []byte("e2\n")); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced append: %v, want ErrFenced", err)
	}
	if err := rt.Truncate("j", "events.ndjson", 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced truncate: %v, want ErrFenced", err)
	}
	if err := rt.Delete("j"); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced delete: %v, want ErrFenced", err)
	}
	if got, err := rt.Get("j", "status.json"); err != nil || string(got) != "v1" {
		t.Fatalf("read after fencing: %q, %v (want the pre-fence value)", got, err)
	}
	if got, _ := be.Get("j", "events.ndjson"); string(got) != "e1\n" {
		t.Fatalf("fenced append reached the backend: %q", got)
	}
}

// TestRemoteHooksObserveWrites: the coordinator-facing callbacks fire
// after each successful mutation with the applied payload.
func TestRemoteHooksObserveWrites(t *testing.T) {
	var puts, appends, truncates []string
	hooks := RemoteHooks{
		OnPut:      func(job, key string, data []byte) { puts = append(puts, job+"/"+key+"="+string(data)) },
		OnAppend:   func(job, key string, data []byte) { appends = append(appends, key+"+"+string(data)) },
		OnTruncate: func(job, key string, size int64) { truncates = append(truncates, key) },
	}
	rt := newTestRemote(t, NewMem(), hooks)
	if err := rt.Put("j", "status.json", []byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Append("j", "events.ndjson", []byte("e\n")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Truncate("j", "events.ndjson", 0); err != nil {
		t.Fatal(err)
	}
	if len(puts) != 1 || puts[0] != "j/status.json=s" {
		t.Fatalf("OnPut saw %v", puts)
	}
	if len(appends) != 1 || appends[0] != "events.ndjson+e\n" {
		t.Fatalf("OnAppend saw %v", appends)
	}
	if len(truncates) != 1 {
		t.Fatalf("OnTruncate saw %v", truncates)
	}
}

// TestRemoteDuplicateDelivery: a replayed append (same write id twice on
// the wire) lands in the feed once.
func TestRemoteDuplicateDelivery(t *testing.T) {
	be := NewMem()
	srv := httptest.NewServer(NewRemoteHandler(be, RemoteHooks{}))
	defer srv.Close()
	rt := NewRemote(srv.URL, RemoteWithClient(&http.Client{
		Transport: &FlakyTransport{Key: "events.ndjson"},
	}))
	// Sanity first: without Duplicate the transport is a pass-through.
	if err := rt.Append("j", "events.ndjson", []byte("a\n")); err != nil {
		t.Fatal(err)
	}
	rt = NewRemote(srv.URL, RemoteWithClient(&http.Client{
		Transport: &FlakyTransport{Key: "events.ndjson", Duplicate: true},
	}))
	for _, line := range []string{"b\n", "c\n"} {
		if err := rt.Append("j", "events.ndjson", []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := be.Get("j", "events.ndjson")
	if err != nil || string(got) != "a\nb\nc\n" {
		t.Fatalf("feed after duplicated deliveries: %q, %v", got, err)
	}
}

// TestRemoteDroppedResponses: after the threshold, matching writes are
// applied server-side but the caller sees ErrInjected — the lost-answer
// fault the service must treat as a failed write.
func TestRemoteDroppedResponses(t *testing.T) {
	be := NewMem()
	srv := httptest.NewServer(NewRemoteHandler(be, RemoteHooks{}))
	defer srv.Close()
	rt := NewRemote(srv.URL, RemoteWithClient(&http.Client{
		Transport: &FlakyTransport{Key: "job.ckpt", DropResponsesAfter: 2},
	}))
	if err := rt.Put("j", "job.ckpt", []byte("snap1")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if err := rt.Put("j", "job.ckpt", []byte("snap2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: %v, want ErrInjected", err)
	}
	// Non-matching keys never fault.
	if err := rt.Put("j", "status.json", []byte("s")); err != nil {
		t.Fatalf("non-matching write: %v", err)
	}
	// The dropped write was applied before its answer vanished.
	if got, _ := be.Get("j", "job.ckpt"); string(got) != "snap2" {
		t.Fatalf("backend after dropped response: %q", got)
	}
}

// TestRemoteDelayedWrites: latency alone changes nothing but timing.
func TestRemoteDelayedWrites(t *testing.T) {
	be := NewMem()
	srv := httptest.NewServer(NewRemoteHandler(be, RemoteHooks{}))
	defer srv.Close()
	rt := NewRemote(srv.URL, RemoteWithClient(&http.Client{
		Transport: &FlakyTransport{Delay: 5 * time.Millisecond},
	}))
	start := time.Now()
	if err := rt.Put("j", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("delay not applied")
	}
	if got, _ := be.Get("j", "k"); string(got) != "v" {
		t.Fatalf("delayed write lost: %q", got)
	}
}

// TestRemoteErrorSurface: malformed requests and unknown operations come
// back as errors, not panics or silent no-ops.
func TestRemoteErrorSurface(t *testing.T) {
	srv := httptest.NewServer(NewRemoteHandler(NewMem(), RemoteHooks{}))
	defer srv.Close()
	rt := NewRemote(srv.URL + "/") // trailing slash is normalized away

	// Bad offset and unknown op go through the raw client paths.
	resp, err := http.Get(srv.URL + "/j/k?offset=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Missing key wins over the bad offset here; both are errors.
	if resp.StatusCode == http.StatusOK {
		t.Fatal("bad offset on missing key answered 200")
	}
	resp, err = http.Post(srv.URL+"/j/k/explode", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown op: HTTP %d", resp.StatusCode)
	}

	if err := rt.Truncate("j", "missing", 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("truncate missing: %v", err)
	}
	// A dead coordinator surfaces as a transport error, not a hang.
	dead := NewRemote("http://127.0.0.1:1")
	if _, err := dead.Get("j", "k"); err == nil {
		t.Fatal("get against a dead endpoint succeeded")
	}
	if _, err := dead.List(); err == nil {
		t.Fatal("list against a dead endpoint succeeded")
	}

	// Job ids and keys with URL-hostile characters round-trip.
	if err := rt.Put("j ob/1", "we ird?key", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, err := rt.Get("j ob/1", "we ird?key"); err != nil || string(got) != "v" {
		t.Fatalf("escaped round-trip: %q, %v", got, err)
	}
	jobs, err := rt.List()
	if err != nil || len(jobs) != 1 || !strings.Contains(jobs[0], "j ob") {
		t.Fatalf("List = %v, %v", jobs, err)
	}
}

// TestRemoteHandlerBodyLengthMismatch: Put and Append store exactly the
// bytes that arrive, whatever Content-Length declared. A body shorter than
// its header (a lying client) costs at most the presize cap, and one far
// longer than its header still arrives whole. The handler is driven
// directly, because a real listener would cut the body at its header.
func TestRemoteHandlerBodyLengthMismatch(t *testing.T) {
	long := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	cases := []struct {
		name, method, path string
		declared           int64
		body               []byte
	}{
		{"put short", http.MethodPut, "/j/k", 4 * maxBodyPresize, []byte("short")},
		{"put long", http.MethodPut, "/j/k", 10, long},
		{"append short", http.MethodPost, "/j/k/append", 4 * maxBodyPresize, []byte("short")},
		{"append long", http.MethodPost, "/j/k/append", 10, long},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			be := NewMem()
			h := NewRemoteHandler(be, RemoteHooks{})
			req := httptest.NewRequest(tc.method, tc.path, bytes.NewReader(tc.body))
			req.ContentLength = tc.declared
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			if rec.Code != http.StatusNoContent {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			got, err := be.Get("j", "k")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.body) {
				t.Fatalf("stored %d bytes, sent %d", len(got), len(tc.body))
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; tc.declared > maxBodyPresize && alloc > maxBodyPresize+1<<20 {
				t.Fatalf("a %d-byte body declared as %d allocated %d bytes; the presize cap is %d",
					len(tc.body), tc.declared, alloc, maxBodyPresize)
			}
		})
	}
}
