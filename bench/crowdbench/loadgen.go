package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// reqHeader carries "<request id>:<class>" from the load generator to the
// span middleware in a traced pass, so the client span and the handler
// span of one request share an ID.
const reqHeader = "X-Crowdbench-Req"

// httpConn is one load-generator connection: a keep-alive client and a
// reusable body buffer. It is not safe for concurrent use.
type httpConn struct {
	c   *http.Client
	buf bytes.Buffer
}

func newHTTPConn() *httpConn {
	return &httpConn{c: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}}
}

// do sends the request and reads the whole reply. The returned body is
// valid until the next call.
func (h *httpConn) do(req *http.Request) (status int, body []byte, err error) {
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, h.buf.Bytes(), nil
}

func (h *httpConn) get(url, reqID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if reqID != "" {
		req.Header.Set(reqHeader, reqID)
	}
	return h.do(req)
}

// post sends a JSON body through a shared client and returns the status;
// it is safe for concurrent use (the open loop has many in flight).
func post(c *http.Client, url string, payload []byte, reqID string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(reqHeader, reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// openLoop sends operation i at start + i*interval for i < n, whatever
// happened to the ones before: each runs on its own goroutine, so a
// stalled reply never delays the next send (independent writers, not one
// caller waiting its turn). do receives the time the operation was due
// and must time its latency from there. late holds how far behind its
// due time each send actually left — the generator's own error, which
// bounds how far the latencies can be trusted. When maxInflight
// operations are already outstanding the backlog is growing and the
// operation is refused instead of sent. stop ends the schedule early.
func openLoop(start time.Time, interval time.Duration, n, maxInflight int, stop <-chan struct{}, do func(i int, due time.Time)) (late samples, sent, refused int) {
	var wg sync.WaitGroup
	slots := make(chan struct{}, maxInflight)
	late = make(samples, 0, n)
loop:
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				break loop
			case <-time.After(wait):
			}
		}
		late = append(late, time.Since(due))
		select {
		case slots <- struct{}{}:
		default:
			refused++
			continue
		}
		sent++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i, due)
			<-slots
		}(i)
	}
	wg.Wait()
	return late, sent, refused
}

// failures keeps the first few failure messages of a run for the report.
type failures struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (f *failures) add(format string, args ...interface{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}
