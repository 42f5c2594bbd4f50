package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"crowdscope/internal/faultfs"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
	"crowdscope/internal/vfs"
)

// newFaultServer is newTestServer over a fault-injection filesystem, for
// tests that take the store's disk away mid-flight.
func newFaultServer(t *testing.T, cfg Config) (*Server, *store.LiveStore, *faultfs.FS) {
	t.Helper()
	ffs := faultfs.New(vfs.OS{})
	lcfg := testLiveCfg
	lcfg.FS = ffs
	ls, err := store.OpenLive(t.TempDir(), lcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ffs.FailWritesWithErr(nil) // never leave the fault armed for teardown
		ls.Close()
	})
	cfg.Store = ls
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ffs.FailWritesWithErr(nil)
		s.Close()
	})
	return s, ls, ffs
}

func ingestN(t *testing.T, h http.Handler, n int) {
	t.Helper()
	w := postJSON(t, h, "/ingest", ingestRequest{Rows: batchRows(n), AutoBatch: true})
	if w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
	}
}

// TestQueryTimeout: a request-chosen deadline cuts a slow scan off before
// its first chunk — however slowly the host runs it — while a request
// with budget to spare completes normally against the same slow store.
func TestQueryTimeout(t *testing.T) {
	s, _, _ := newFaultServer(t, Config{})
	h := s.Handler()
	ingestN(t, h, 300) // one batch: one segment, one scan chunk

	defer query.SetScanDelayForTest(0)
	admitted := query.SetScanDelayForTest(time.Hour)

	w := get(h, "/query?q=where+worker+>=+0&timeout_ms=10")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow query: %d %s, want 504", w.Code, w.Body.String())
	}
	if n := admitted(); n != 0 {
		t.Fatalf("%d chunks admitted past the 10ms budget, want none", n)
	}
	if !strings.Contains(w.Body.String(), "budget") {
		t.Fatalf("timeout reply does not name the budget: %s", w.Body.String())
	}
	if got := s.timeouts.Load(); got == 0 {
		t.Fatal("timeout not counted")
	}

	// The same scan under a sufficient budget completes, its chunk
	// admitted.
	admitted = query.SetScanDelayForTest(time.Millisecond)
	w = get(h, "/query?q=where+worker+>=+0&timeout_ms=100000")
	if w.Code != http.StatusOK {
		t.Fatalf("generous query: %d %s", w.Code, w.Body.String())
	}
	if n := admitted(); n != 1 {
		t.Fatalf("%d chunks admitted, want 1", n)
	}

	if w := get(h, "/query?q=where+worker+>=+0&timeout_ms=bogus"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad timeout_ms: %d", w.Code)
	}
}

// TestTimeoutClampedByMax: a request cannot buy more wall clock than the
// server maximum allows.
func TestTimeoutClampedByMax(t *testing.T) {
	s, _, _ := newFaultServer(t, Config{QueryTimeoutMax: 15 * time.Millisecond})
	h := s.Handler()
	ingestN(t, h, 300)

	defer query.SetScanDelayForTest(0)
	query.SetScanDelayForTest(30 * time.Millisecond)

	// Ask for a minute; get the 15ms house limit.
	w := get(h, "/query?q=where+worker+>=+0&timeout_ms=60000")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("got %d %s, want 504 from the clamped deadline", w.Code, w.Body.String())
	}
}

// TestAdmissionQueueAndShed: with every execution slot busy, the next
// query waits in the bounded queue and the one after that is shed with
// 429 + Retry-After; freeing a slot lets the queued query run.
func TestAdmissionQueueAndShed(t *testing.T) {
	s, _, _ := newFaultServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	h := s.Handler()
	ingestN(t, h, 50)

	s.sem <- struct{}{} // occupy the only slot

	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		queued <- get(h, "/query?q=where+worker+>=+0")
	}()
	waitFor(t, func() bool { return s.queuedN.Load() == 1 })

	w := get(h, "/query?q=where+worker+>=+0")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow query: %d %s, want 429", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.shed.Load() != 1 {
		t.Fatalf("shed = %d, want 1", s.shed.Load())
	}

	<-s.sem // free the slot; the queued query proceeds
	if w := <-queued; w.Code != http.StatusOK {
		t.Fatalf("queued query: %d %s", w.Code, w.Body.String())
	}
}

// TestPanicContained: a panicking handler becomes a 500 and a counter
// tick; the server keeps serving afterwards.
func TestPanicContained(t *testing.T) {
	s, _, _ := newFaultServer(t, Config{})
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	h := s.Handler()

	w := get(h, "/boom")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panic route: %d, want 500", w.Code)
	}
	if s.panics.Load() != 1 {
		t.Fatalf("panics = %d, want 1", s.panics.Load())
	}
	ingestN(t, h, 10)
	if w := get(h, "/query?q=where+worker+>=+0"); w.Code != http.StatusOK {
		t.Fatalf("query after panic: %d %s", w.Code, w.Body.String())
	}
}

// TestShutdownDrainsAdmitted is the regression test for the admit/Close
// race: a request that joined the drain group before Close must run to
// completion (against a store that has not been finally checkpointed
// out from under it), while requests arriving after Close begins get a
// clean 503.
func TestShutdownDrainsAdmitted(t *testing.T) {
	s, _, _ := newFaultServer(t, Config{})
	h := s.Handler()
	ingestN(t, h, 300)

	defer query.SetScanDelayForTest(0)
	query.SetScanDelayForTest(20 * time.Millisecond)

	slow := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		slow <- get(h, "/query?q=where+worker+>=+0")
	}()
	waitFor(t, func() bool { return s.inflightN.Load() == 1 })

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	// New arrivals are refused as soon as shutdown begins.
	waitFor(t, func() bool {
		return get(h, "/healthz").Code == http.StatusServiceUnavailable
	})

	// The admitted slow query still completes with a real result.
	if w := <-slow; w.Code != http.StatusOK {
		t.Fatalf("in-flight query during shutdown: %d %s", w.Code, w.Body.String())
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestDegradedServing: a full disk turns the service read-only — ingest
// answers 507 with the reason, queries and health keep working — and
// the background probe restores write service once space returns.
func TestDegradedServing(t *testing.T) {
	s, ls, ffs := newFaultServer(t, Config{DegradedProbeEvery: 10 * time.Millisecond})
	h := s.Handler()
	ingestN(t, h, 250)
	rowsBefore := ls.Rows()

	ffs.FailWritesWithErr(syscall.ENOSPC)
	w := postJSON(t, h, "/ingest", ingestRequest{Rows: batchRows(120), AutoBatch: true})
	if w.Code != http.StatusInsufficientStorage {
		t.Fatalf("ingest on full disk: %d %s, want 507", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "degraded") {
		t.Fatalf("507 body does not explain degradation: %s", w.Body.String())
	}
	// Queries keep answering over the acked prefix.
	w = get(h, "/query?q=where+worker+>=+0")
	if w.Code != http.StatusOK {
		t.Fatalf("query while degraded: %d %s", w.Code, w.Body.String())
	}
	var qr queryReply
	decode(t, w, &qr)
	if qr.Rows != rowsBefore {
		t.Fatalf("degraded query sees %d rows, want %d", qr.Rows, rowsBefore)
	}
	// Health stays 200 but reports the mode; stats carry the reason.
	w = get(h, "/healthz")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "degraded") {
		t.Fatalf("healthz while degraded: %d %s", w.Code, w.Body.String())
	}
	var st statsReply
	decode(t, get(h, "/stats"), &st)
	if !st.Degraded || st.DegradedReason == "" {
		t.Fatalf("stats while degraded: %+v", st)
	}

	ffs.FailWritesWithErr(nil) // space returns; the probe re-arms writes
	// The probe counts a recovery only after RecoverWrites has returned, so
	// a counted recovery is also a store out of degraded mode; waiting on
	// the store alone could look at the counter before the probe bumps it.
	waitFor(t, func() bool { return s.recoveries.Load() > 0 })
	if w := get(h, "/healthz"); !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz after recovery: %s", w.Body.String())
	}
	ingestN(t, h, 60)
	if got := ls.Rows(); got != rowsBefore+60 {
		t.Fatalf("rows after recovery = %d, want %d", got, rowsBefore+60)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueuedQueryAbandoned: a client that gives up while its query is
// still waiting for a slot is counted and unblocks the queue slot.
func TestQueuedQueryAbandoned(t *testing.T) {
	s, _, _ := newFaultServer(t, Config{MaxInflight: 1, MaxQueue: 2})
	h := s.Handler()
	ingestN(t, h, 50)

	s.sem <- struct{}{} // occupy the only slot
	defer func() { <-s.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/query?q=where+worker+>=+0", nil).WithContext(ctx)
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		done <- w
	}()
	waitFor(t, func() bool { return s.queuedN.Load() == 1 })
	cancel()
	w := <-done
	if w.Code != statusClientClosedRequest {
		t.Fatalf("abandoned queued query: %d, want %d", w.Code, statusClientClosedRequest)
	}
	if s.cancelled.Load() == 0 {
		t.Fatal("cancellation not counted")
	}
	if s.queuedN.Load() != 0 {
		t.Fatalf("queue slot leaked: %d", s.queuedN.Load())
	}
}
