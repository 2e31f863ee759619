package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"evoprot"
	"evoprot/internal/serve"
)

// feedEvent is the part of a streamed NDJSON event the benchmark reads.
type feedEvent struct {
	Seq    uint64
	Island int
	Done   bool
	Stats  struct {
		Gen int
		// TotalTime is the generation's own wall time, stamped by the
		// engine.
		TotalTime time.Duration
	}
}

// received is one feed event and the moment the client read it.
type received struct {
	ev feedEvent
	at time.Time
}

// outcome is everything one job's client observed, from submission to
// the fetched result.
type outcome struct {
	spec evoprot.JobSpec
	slot int // the spec's index in the workload's pool
	id   string
	err  error

	start       time.Time     // just before the submission was sent
	submit      time.Duration // POST /v1/jobs round trip
	firstEvent  time.Duration // start -> first generation event read
	events      []received
	status      time.Duration // GET /v1/jobs/{id} round trip after the feed ended
	queueWait   time.Duration // server-side Created -> Started
	result      time.Duration // GET /v1/jobs/{id}/result round trip
	resultBytes int
	total       time.Duration // start -> result decoded
	res         serve.JobResult
}

// apiClient speaks evoprotd's public HTTP API as one tenant.
type apiClient struct {
	base string
	key  string // API key; empty against an anonymous daemon
	hc   *http.Client
}

func (c *apiClient) request(method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.key != "" {
		req.Header.Set("X-API-Key", c.key)
	}
	return c.hc.Do(req)
}

// getJSON fetches path, requires 200 and decodes the body into v. It
// returns the body length.
func (c *apiClient) getJSON(path string, v any) (int, error) {
	resp, err := c.request(http.MethodGet, path, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return len(body), json.Unmarshal(body, v)
}

// runJob submits spec, tails its event feed to the end, reads the final
// status and fetches the result with the protected dataset inlined.
func (c *apiClient) runJob(spec evoprot.JobSpec) (o outcome) {
	o.spec = spec
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	o.start = time.Now()
	resp, err := c.request(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		o.err = fmt.Errorf("submitting: %w", err)
		return o
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.submit = time.Since(o.start)
	if err != nil {
		o.err = fmt.Errorf("submitting: %w", err)
		return o
	}
	if resp.StatusCode != http.StatusCreated {
		o.err = fmt.Errorf("submission refused: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
		return o
	}
	var st serve.JobStatus
	if err := json.Unmarshal(reply, &st); err != nil {
		o.err = fmt.Errorf("decoding submission reply: %w", err)
		return o
	}
	o.id = st.ID

	if err := c.tail(&o); err != nil {
		o.err = fmt.Errorf("job %s: event feed: %w", o.id, err)
		return o
	}

	t := time.Now()
	if _, err := c.getJSON("/v1/jobs/"+o.id, &st); err != nil {
		o.err = err
		return o
	}
	o.status = time.Since(t)
	if st.State != serve.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", o.id, st.State, st.Error)
		return o
	}
	o.queueWait = st.Started.Sub(st.Created)

	t = time.Now()
	n, err := c.getJSON("/v1/jobs/"+o.id+"/result", &o.res)
	if err != nil {
		o.err = err
		return o
	}
	o.result = time.Since(t)
	o.resultBytes = n
	o.total = time.Since(o.start)
	return o
}

// tail reads the job's NDJSON feed from offset 0 until the server ends
// it, which it does once the job is terminal.
func (c *apiClient) tail(o *outcome) error {
	resp, err := c.request(http.MethodGet, "/v1/jobs/"+o.id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		at := time.Now()
		var ev feedEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("decoding event %d: %w", len(o.events), err)
		}
		if o.firstEvent == 0 && ev.Island >= 0 && !ev.Done {
			o.firstEvent = at.Sub(o.start)
		}
		o.events = append(o.events, received{ev: ev, at: at})
	}
	return sc.Err()
}
