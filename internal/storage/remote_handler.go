package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// RemoteHooks lets the process mounting a store handler observe and vet
// the traffic. A cluster coordinator uses Authorize for lease fencing
// and the On* callbacks to fold remote workers' writes back into its
// live job table; all fields are optional.
type RemoteHooks struct {
	// Authorize vets every mutation (Put, Append, Truncate, Delete):
	// job and the request's lease token in, an error to refuse with
	// 409 — which the Remote client surfaces as ErrFenced. A non-nil
	// release is held by the handler across the mutation's apply and
	// called afterwards, letting the authorizer serialize fencing
	// decisions with in-flight writes (an authorization that merely
	// checks-then-returns would let a write authorized an instant
	// before a lease revocation land an instant after it). Nil admits
	// every mutation.
	Authorize func(job, token string) (release func(), err error)
	// OnPut / OnAppend / OnTruncate run after the corresponding mutation
	// succeeded on the backend.
	OnPut      func(job, key string, data []byte)
	OnAppend   func(job, key string, data []byte)
	OnTruncate func(job, key string, size int64)
}

// remoteHandler serves a Store over the protocol Remote speaks:
//
//	GET    /                       list job ids (JSON array)
//	GET    /{job}/{key}[?offset=N]  whole value, or the bytes past offset
//	PUT    /{job}/{key}            Put
//	POST   /{job}/{key}/append     Append (X-Evoprot-Write dedups replays)
//	POST   /{job}/{key}/truncate?size=N
//	DELETE /{job}                  Delete
//
// Missing keys answer 404, refused mutations 409 — the two statuses the
// client maps onto ErrNotExist and ErrFenced.
type remoteHandler struct {
	be    Store
	hooks RemoteHooks
	mux   *http.ServeMux

	mu        sync.Mutex
	lastWrite map[string]string // (job,key) -> last applied write id
}

// NewRemoteHandler serves be over HTTP for Remote clients. Mount it
// under a prefix with http.StripPrefix.
func NewRemoteHandler(be Store, hooks RemoteHooks) http.Handler {
	h := &remoteHandler{be: be, hooks: hooks, lastWrite: make(map[string]string)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", h.list)
	mux.HandleFunc("GET /{job}/{key}", h.get)
	mux.HandleFunc("PUT /{job}/{key}", h.put)
	mux.HandleFunc("POST /{job}/{key}/{op}", h.mutate)
	mux.HandleFunc("DELETE /{job}", h.del)
	h.mux = mux
	return h
}

func (h *remoteHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// fail writes err as the response: plain text (the client wraps it),
// with the status the error contract prescribes.
func fail(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, ErrNotExist) {
		code = http.StatusNotFound
	}
	http.Error(w, err.Error(), code)
}

// authorize runs the fencing hook for a mutation on job. The returned
// release (never nil on success) must be called once the mutation has
// been applied.
func (h *remoteHandler) authorize(w http.ResponseWriter, r *http.Request, job string) (func(), bool) {
	if h.hooks.Authorize == nil {
		return func() {}, true
	}
	release, err := h.hooks.Authorize(job, r.Header.Get(LeaseHeader))
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return nil, false
	}
	if release == nil {
		release = func() {}
	}
	return release, true
}

func (h *remoteHandler) list(w http.ResponseWriter, r *http.Request) {
	jobs, err := h.be.List()
	if err != nil {
		fail(w, err)
		return
	}
	if jobs == nil {
		jobs = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(jobs)
}

func (h *remoteHandler) get(w http.ResponseWriter, r *http.Request) {
	job, key := r.PathValue("job"), r.PathValue("key")
	data, err := h.be.Get(job, key)
	if err != nil {
		fail(w, err)
		return
	}
	if v := r.URL.Query().Get("offset"); v != "" {
		off, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || off < 0 {
			http.Error(w, fmt.Sprintf("bad offset %q", v), http.StatusBadRequest)
			return
		}
		if off > int64(len(data)) {
			// A tailing reader past a truncate: nothing there yet. Empty
			// keeps the reader polling instead of erroring.
			off = int64(len(data))
		}
		data = data[off:]
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// maxBodyPresize caps the buffer readBody allocates up front from a
// request's Content-Length, so a lying header cannot force a large
// allocation; a body that really is larger grows past it as it arrives.
const maxBodyPresize = 16 << 20

// readBody reads a request body into a buffer presized from its declared
// length: a checkpoint PUT then costs one allocation of its own size
// instead of io.ReadAll's doubling series.
func readBody(r *http.Request) ([]byte, error) {
	size := min(max(r.ContentLength, 0), maxBodyPresize)
	// One spare byte lets a body that matches its length reach EOF
	// without growing the buffer.
	buf := make([]byte, 0, size+1)
	for {
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

func (h *remoteHandler) put(w http.ResponseWriter, r *http.Request) {
	job, key := r.PathValue("job"), r.PathValue("key")
	release, ok := h.authorize(w, r, job)
	if !ok {
		return
	}
	defer release()
	data, err := readBody(r)
	if err != nil {
		fail(w, err)
		return
	}
	if err := h.be.Put(job, key, data); err != nil {
		fail(w, err)
		return
	}
	if h.hooks.OnPut != nil {
		h.hooks.OnPut(job, key, data)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *remoteHandler) mutate(w http.ResponseWriter, r *http.Request) {
	job, key, op := r.PathValue("job"), r.PathValue("key"), r.PathValue("op")
	release, ok := h.authorize(w, r, job)
	if !ok {
		return
	}
	defer release()
	switch op {
	case "append":
		data, err := readBody(r)
		if err != nil {
			fail(w, err)
			return
		}
		if id := r.Header.Get(writeIDHeader); id != "" && h.seen(job, key, id) {
			// Duplicate delivery of an append already applied: acknowledge
			// without re-applying, so the feed gains each event once.
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if err := h.be.Append(job, key, data); err != nil {
			fail(w, err)
			return
		}
		if h.hooks.OnAppend != nil {
			h.hooks.OnAppend(job, key, data)
		}
	case "truncate":
		size, err := strconv.ParseInt(r.URL.Query().Get("size"), 10, 64)
		if err != nil || size < 0 {
			http.Error(w, fmt.Sprintf("bad size %q", r.URL.Query().Get("size")), http.StatusBadRequest)
			return
		}
		if err := h.be.Truncate(job, key, size); err != nil {
			fail(w, err)
			return
		}
		if h.hooks.OnTruncate != nil {
			h.hooks.OnTruncate(job, key, size)
		}
	default:
		http.Error(w, fmt.Sprintf("unknown operation %q", op), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// seen records id as (job, key)'s latest write and reports whether it
// was already the latest — i.e. this request is a back-to-back duplicate
// delivery. One remembered id per key suffices: the service has a single
// writer per key, so a replayed append can only duplicate the most
// recent one.
func (h *remoteHandler) seen(job, key, id string) bool {
	k := job + "\x00" + key
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lastWrite[k] == id {
		return true
	}
	h.lastWrite[k] = id
	return false
}

func (h *remoteHandler) del(w http.ResponseWriter, r *http.Request) {
	job := r.PathValue("job")
	release, ok := h.authorize(w, r, job)
	if !ok {
		return
	}
	defer release()
	if err := h.be.Delete(job); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
