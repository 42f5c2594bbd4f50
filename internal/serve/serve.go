// Package serve is the live query service: an HTTP/JSON front end that
// owns a crash-safe LiveStore and answers the full -q query language
// over it while ingest keeps running. The design target is the paper's
// operational claim — analytical queries over the live instance log,
// not over last night's export — so the data path is built so readers
// never block writers:
//
//   - every /query runs against an MVCC view (LiveStore.View): an
//     immutable *Store snapshot whose refresh cost is proportional to
//     the rows appended since the previous view, not to store size;
//   - plans are cached by (store generation, tables generation, query
//     text), and a view's generation only changes when the sealed
//     prefix changes, so hot dashboard queries keep hitting the plan
//     cache across ingest;
//   - /ingest acknowledges only after the WAL has accepted the record
//     (LiveStore.Append), so an acked batch survives a crash;
//   - background maintenance — merging small sealed segments and
//     time-based checkpoints — runs on tickers off the request path.
//
// Endpoints (all JSON): POST/GET /query, POST /ingest, GET /stats,
// GET /healthz.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/query/lang"
	"crowdscope/internal/store"
)

// maxIngestBody bounds an /ingest request body; MaxAppendRows rows of
// JSON fit comfortably.
const maxIngestBody = 16 << 20

// Config configures a Server. Store is required; everything else has a
// serviceable zero value.
type Config struct {
	// Store is the live store the server owns. The server appends,
	// checkpoints and compacts it; the caller still owns Close.
	Store *store.LiveStore

	// Tables backs joined attribute columns (worker.*, batch.*) in
	// queries; nil rejects such queries with a client error.
	Tables *query.SideTables

	// PlanCacheEntries sizes the planner's LRU plan cache (default 128).
	PlanCacheEntries int

	// QueryWorkers bounds each query's scan parallelism
	// (0 = GOMAXPROCS, 1 = serial); it never changes results.
	QueryWorkers int

	// CompactEvery runs segment compaction on this period (0 disables).
	// CompactMaxRows is the largest merged segment to build; it defaults
	// to 1<<18 rows when CompactEvery is set.
	CompactEvery   time.Duration
	CompactMaxRows int

	// CheckpointEvery takes a time-based checkpoint on this period
	// (0 disables). Row-count checkpoints (LiveConfig.CheckpointRows)
	// still apply independently; this bounds recovery time for a store
	// that ingests slowly.
	CheckpointEvery time.Duration

	// MaxInflight bounds concurrently executing queries; excess requests
	// wait in a bounded queue. <=0 defaults to max(4, 2*GOMAXPROCS).
	MaxInflight int

	// MaxQueue bounds queries waiting for an execution slot; a request
	// arriving with the queue full is shed with 429 and Retry-After.
	// 0 defaults to 4*MaxInflight; negative disables queueing (full
	// slots shed immediately).
	MaxQueue int

	// QueryTimeout is the default per-query wall-clock budget (0 = none
	// beyond QueryTimeoutMax). A request may choose its own with
	// ?timeout_ms=; either way the effective timeout never exceeds
	// QueryTimeoutMax.
	QueryTimeout time.Duration

	// QueryTimeoutMax clamps per-request timeouts; 0 defaults to 5m.
	QueryTimeoutMax time.Duration

	// DegradedProbeEvery is how often a degraded store is probed for
	// recovered disk space (store.LiveStore.RecoverWrites). 0 defaults
	// to 2s; negative disables the probe.
	DegradedProbeEvery time.Duration

	// Logf receives background-maintenance diagnostics; nil discards.
	Logf func(format string, args ...interface{})
}

// Server is the crowdserved HTTP service. Create with New, mount
// Handler, and Close during shutdown (before closing the store).
type Server struct {
	ls     *store.LiveStore
	tables *query.SideTables
	pn     *query.Planner
	cfg    Config
	mux    *http.ServeMux

	// ingestMu serializes batch-ID assignment with the append it covers,
	// so concurrent auto-batch ingests get distinct IDs in append order.
	ingestMu sync.Mutex

	// admitMu guards closed together with joining the drain group: Close
	// flips closed under the lock before waiting on inflight, so a
	// request either observes closed (and is refused) or has already
	// joined the group (and is drained). The previous design — an atomic
	// flag checked before and after inflight.Add — left a window where a
	// request admitted between the check and the Add raced the final
	// checkpoint.
	admitMu  sync.Mutex
	closed   bool
	inflight sync.WaitGroup // requests admitted and not yet finished
	bg       sync.WaitGroup // background maintenance goroutine
	stop     chan struct{}

	sem chan struct{} // query execution slots (capacity MaxInflight)

	started     time.Time
	queries     atomic.Int64
	queryErrs   atomic.Int64
	ingests     atomic.Int64
	ingestRows  atomic.Int64
	compactions atomic.Int64 // segments merged away by the background loop
	ckptErr     atomic.Value // last background checkpoint error string

	inflightN  atomic.Int64 // requests currently being served (gauge)
	queuedN    atomic.Int64 // queries waiting for an execution slot (gauge)
	shed       atomic.Int64 // queries refused 429 with the queue full
	cancelled  atomic.Int64 // queries abandoned by their client
	timeouts   atomic.Int64 // queries that exhausted their wall-clock budget
	panics     atomic.Int64 // handler panics converted to 500s
	recoveries atomic.Int64 // degraded->healthy transitions by the probe
}

// errDraining is what every request refused by the shutdown gate gets.
var errDraining = errors.New("server is shutting down")

// errOverloaded sheds load when the query queue is full; the handler
// pairs it with 429 and a Retry-After hint.
var errOverloaded = errors.New("server overloaded: query queue full")

// statusClientClosedRequest reports a query abandoned by its caller
// (nginx's non-standard 499); the client is gone, the code is for logs.
const statusClientClosedRequest = 499

// New builds a Server over cfg.Store and starts its background
// maintenance loop (when configured).
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("serve: Config.Store is required")
	}
	if cfg.PlanCacheEntries <= 0 {
		cfg.PlanCacheEntries = 128
	}
	if cfg.CompactEvery > 0 && cfg.CompactMaxRows <= 0 {
		cfg.CompactMaxRows = 1 << 18
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
		if cfg.MaxInflight < 4 {
			cfg.MaxInflight = 4
		}
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxInflight
	} else if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueryTimeoutMax <= 0 {
		cfg.QueryTimeoutMax = 5 * time.Minute
	}
	if cfg.DegradedProbeEvery == 0 {
		cfg.DegradedProbeEvery = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	s := &Server{
		ls:      cfg.Store,
		tables:  cfg.Tables,
		pn:      query.NewPlanner(cfg.PlanCacheEntries),
		cfg:     cfg,
		mux:     http.NewServeMux(),
		stop:    make(chan struct{}),
		sem:     make(chan struct{}, cfg.MaxInflight),
		started: time.Now(),
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.bg.Add(1)
	go s.maintain()
	return s, nil
}

// Handler returns the server's HTTP handler. Every request is admitted
// through the drain gate: after Close begins, new requests are refused
// with 503 while admitted ones run to completion. A handler panic is
// contained to its request — counted, logged with its stack, and
// answered with a 500 when the response has not started.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.admit() {
			writeErr(w, http.StatusServiceUnavailable, errDraining)
			return
		}
		defer s.inflight.Done()
		s.inflightN.Add(1)
		defer s.inflightN.Add(-1)
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				// net/http's sentinel for deliberately aborting a response;
				// not a bug to contain — let the server handle it.
				panic(p)
			}
			s.panics.Add(1)
			s.cfg.Logf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			if !tw.started {
				writeErr(tw, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
			}
		}()
		s.mux.ServeHTTP(tw, r)
	})
}

// trackingWriter records whether the response has started, so panic
// containment knows a 500 is still writable (a WriteHeader after the
// handler already wrote one would be superfluous).
type trackingWriter struct {
	http.ResponseWriter
	started bool
}

func (w *trackingWriter) WriteHeader(code int) {
	w.started = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(b)
}

func (w *trackingWriter) Flush() {
	w.started = true
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// admit joins the drain group unless shutdown has begun. The closed
// check and the Add happen under one lock — see admitMu.
func (s *Server) admit() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

// acquireQuerySlot takes a query execution slot, waiting in the bounded
// queue when all slots are busy. The returned release func must be
// called exactly once. Errors: errOverloaded (queue full), errDraining
// (shutdown began while queued), or the context's error (caller gone).
func (s *Server) acquireQuerySlot(ctx context.Context) (func(), error) {
	select {
	case s.sem <- struct{}{}:
		return s.releaseSlot, nil
	default:
	}
	if n := s.queuedN.Add(1); n > int64(s.cfg.MaxQueue) {
		s.queuedN.Add(-1)
		s.shed.Add(1)
		return nil, errOverloaded
	}
	defer s.queuedN.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return s.releaseSlot, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.stop:
		return nil, errDraining
	}
}

func (s *Server) releaseSlot() { <-s.sem }

// Close drains the server: refuse new requests, kick queued queries,
// stop background maintenance, wait for in-flight requests, then take
// a final checkpoint so a clean shutdown recovers without WAL replay.
// A store stuck degraded (disk still full) skips the checkpoint — its
// acked rows are already WAL-durable. The caller closes the store
// itself afterwards.
func (s *Server) Close() error {
	s.admitMu.Lock()
	if s.closed {
		s.admitMu.Unlock()
		return nil
	}
	s.closed = true
	s.admitMu.Unlock()
	close(s.stop)
	s.bg.Wait()
	s.inflight.Wait()
	if deg, reason := s.ls.Degraded(); deg {
		s.cfg.Logf("serve: skipping final checkpoint, store degraded: %s", reason)
		return nil
	}
	if err := s.ls.Checkpoint(); err != nil {
		return fmt.Errorf("serve: final checkpoint: %w", err)
	}
	return nil
}

// maintain is the background maintenance loop: segment compaction,
// time-based checkpoints, and the degraded-store recovery probe, each
// on its own ticker, off the request path.
func (s *Server) maintain() {
	defer s.bg.Done()
	var compact, ckpt, probe <-chan time.Time
	if s.cfg.CompactEvery > 0 {
		t := time.NewTicker(s.cfg.CompactEvery)
		defer t.Stop()
		compact = t.C
	}
	if s.cfg.CheckpointEvery > 0 {
		t := time.NewTicker(s.cfg.CheckpointEvery)
		defer t.Stop()
		ckpt = t.C
	}
	if s.cfg.DegradedProbeEvery > 0 {
		t := time.NewTicker(s.cfg.DegradedProbeEvery)
		defer t.Stop()
		probe = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-compact:
			if n := s.ls.Compact(s.cfg.CompactMaxRows); n > 0 {
				s.compactions.Add(int64(n))
				s.cfg.Logf("serve: compacted away %d segments", n)
			}
		case <-ckpt:
			if deg, _ := s.ls.Degraded(); deg {
				continue // nothing to checkpoint onto; the probe owns recovery
			}
			if err := s.ls.Checkpoint(); err != nil {
				s.ckptErr.Store(err.Error())
				s.cfg.Logf("serve: background checkpoint: %v", err)
			} else {
				s.ckptErr.Store("")
			}
		case <-probe:
			deg, reason := s.ls.Degraded()
			if !deg {
				continue
			}
			if err := s.ls.RecoverWrites(); err != nil {
				s.cfg.Logf("serve: still degraded (%s): %v", reason, err)
				continue
			}
			s.recoveries.Add(1)
			s.cfg.Logf("serve: recovered from degraded state (%s)", reason)
		}
	}
}

// errorReply is the JSON error envelope every endpoint uses.
type errorReply struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorReply{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// queryRequest is the /query request body (POST); GET passes the same
// fields as URL parameters q and explain.
type queryRequest struct {
	Q       string `json:"q"`
	Explain bool   `json:"explain"`
}

// replyBufs recycles /query reply buffers: a scan's reply runs to
// megabytes, appended whole before one Write.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendFloat appends f as encoding/json renders a float64: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 with a one-digit exponent's
// leading zero dropped. ok is false for NaN and ±Inf, which JSON lacks.
// The 'f' form of a nonzero f, which nearly every reply float takes, comes
// from the shortest-digits kernel (appendShortestF); zero and the 'e' form
// stay on strconv.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if abs := math.Abs(f); abs >= 1e-6 && abs < 1e21 {
		return appendShortestF(b, f), true
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	if f == 0 {
		return strconv.AppendFloat(b, f, 'f', -1, 64), true
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// appendGroups appends the reply's groups array without reflection, byte
// for byte what encoding/json wrote for the former []groupReply: key, key2
// (two-key queries), count, sum/mean/min/max (queries with a value), p50
// and distinct (when asked for). The floats, most of a scan reply's bytes
// and of its encoding time, go through appendFloat.
func appendGroups(b []byte, q *query.Query, groups []query.Group) ([]byte, error) {
	ok := true
	num := func(name string, f float64) {
		var fin bool
		b, fin = appendFloat(append(b, name...), f)
		ok = ok && fin
	}
	b = append(b, '[')
	for i := range groups {
		g := &groups[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"key":`...), g.Key, 10)
		if len(q.GroupBys) > 1 {
			b = strconv.AppendInt(append(b, `,"key2":`...), g.Key2, 10)
		}
		b = strconv.AppendInt(append(b, `,"count":`...), g.Count, 10)
		if q.Value != query.ValueNone {
			num(`,"sum":`, g.Sum)
			num(`,"mean":`, g.Mean())
			num(`,"min":`, g.Min)
			num(`,"max":`, g.Max)
		}
		if q.P50 {
			num(`,"p50":`, g.P50)
		}
		if q.Distinct != query.ColNone {
			b = strconv.AppendInt(append(b, `,"distinct":`...), int64(g.Distinct), 10)
		}
		b = append(b, '}')
	}
	if !ok {
		return b, errors.New("result holds a NaN or infinite aggregate, which JSON cannot carry")
	}
	return append(b, ']'), nil
}

// appendJSON appends v's encoding/json form — the reply's few strings and
// its stats object, never the groups. Neither kind can fail to marshal.
func appendJSON(b []byte, v any) []byte {
	j, _ := json.Marshal(v)
	return append(b, j...)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		req.Q = r.URL.Query().Get("q")
		req.Explain, _ = strconv.ParseBool(r.URL.Query().Get("explain"))
	case http.MethodPost:
		if err := json.NewDecoder(io.LimitReader(r.Body, maxIngestBody)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
			return
		}
	default:
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
		return
	}
	if req.Q == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing query text (q)"))
		return
	}
	lq, err := lang.Parse(req.Q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q, err := query.Compile(lq)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q.Workers = s.cfg.QueryWorkers
	if q.NeedsTables() {
		if s.tables == nil {
			writeErr(w, http.StatusBadRequest,
				errors.New("query joins attribute columns but the server has no side tables (start crowdserved with -tables)"))
			return
		}
		q.Tables = s.tables
	}
	timeout, err := s.queryTimeout(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	release, err := s.acquireQuerySlot(r.Context())
	if err != nil {
		switch {
		case errors.Is(err, errOverloaded):
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, err)
		case errors.Is(err, errDraining):
			writeErr(w, http.StatusServiceUnavailable, err)
		default: // caller gave up while queued
			s.cancelled.Add(1)
			writeErr(w, statusClientClosedRequest, err)
		}
		return
	}
	defer release()

	// The budget runs from here, once the query holds a slot: time spent
	// queued does not count.
	ctx, cancel := context.WithTimeoutCause(r.Context(), timeout, budgetExceeded(timeout))
	defer cancel()
	// One consistent MVCC snapshot for the whole request: the view is
	// immutable, so concurrent ingest cannot shear the scan.
	st := s.ls.View()
	res, err := query.Exec(ctx, query.Source{Store: st}, q, query.Options{Planner: s.pn, Explain: req.Explain})
	if err != nil {
		if ctx.Err() != nil {
			err = context.Cause(ctx) // the budget by name, or the hang-up
		}
		s.writeQueryErr(w, err)
		return
	}

	// The presentation stages; stats still describe the full scan.
	groups := res.Groups
	if lq.Sort == "count" {
		slices.SortStableFunc(groups, func(a, b query.Group) int { return cmp.Compare(b.Count, a.Count) })
	}
	if lq.HasTop && lq.Top > 0 && lq.Top < len(groups) {
		groups = groups[:lq.Top]
	}

	// The reply, in the field order encoding/json walked the former struct:
	// query (canonical text), rows (in the snapshot queried), generation,
	// groups, stats and, with explain, plan and cached.
	buf := replyBufs.Get().(*[]byte)
	defer replyBufs.Put(buf)
	b := appendJSON(append((*buf)[:0], `{"query":`...), q.Text())
	b = strconv.AppendInt(append(b, `,"rows":`...), int64(st.Len()), 10)
	b = strconv.AppendUint(append(b, `,"generation":`...), st.Generation(), 10)
	b, err = appendGroups(append(b, `,"groups":`...), &q, groups)
	b = appendJSON(append(b, `,"stats":`...), res.Stats)
	if res.Plan != nil {
		b = appendJSON(append(b, `,"plan":`...), res.Plan.String())
		b = strconv.AppendBool(append(b, `,"cached":`...), res.Plan.Cached)
	}
	*buf = append(b, "}\n"...) // the pool keeps the grown buffer
	if err != nil {
		s.queryErrs.Add(1)
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.queries.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(*buf) // a reader that has gone away needs no handling
}

// queryTimeout resolves the effective wall-clock budget for a request:
// ?timeout_ms= when present, else the server default, clamped to the
// server maximum either way.
func (s *Server) queryTimeout(r *http.Request) (time.Duration, error) {
	timeout := s.cfg.QueryTimeout
	if tms := r.URL.Query().Get("timeout_ms"); tms != "" {
		v, err := strconv.ParseInt(tms, 10, 64)
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("invalid timeout_ms %q", tms)
		}
		timeout = time.Duration(v) * time.Millisecond
	}
	if timeout <= 0 || timeout > s.cfg.QueryTimeoutMax {
		timeout = s.cfg.QueryTimeoutMax
	}
	return timeout, nil
}

// budgetExceeded is the cause a query's own deadline carries: it names
// the budget in the 504 reply and still matches context.DeadlineExceeded.
type budgetExceeded time.Duration

func (b budgetExceeded) Error() string {
	return fmt.Sprintf("query budget of %v exceeded", time.Duration(b))
}

func (budgetExceeded) Unwrap() error { return context.DeadlineExceeded }

// writeQueryErr maps a query execution error to its status code and
// counter: a deadline (the query's budget or one it inherited) → 504,
// abandoned by the client → 499, anything else → 400.
func (s *Server) writeQueryErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		writeErr(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		s.cancelled.Add(1)
		writeErr(w, statusClientClosedRequest, err)
	default:
		s.queryErrs.Add(1)
		writeErr(w, http.StatusBadRequest, err)
	}
}

// ingestRow is one row on the wire; field names mirror the query
// language's column names.
type ingestRow struct {
	Batch    uint32  `json:"batch"`
	TaskType uint32  `json:"tasktype"`
	Item     uint32  `json:"item"`
	Worker   uint32  `json:"worker"`
	Start    int64   `json:"start"`
	End      int64   `json:"end"`
	Trust    float32 `json:"trust"`
	Answer   uint32  `json:"answer"`
}

// ingestRequest is the /ingest request body. With AutoBatch the server
// assigns the next free batch ID to every row in the request (the
// request is one batch); otherwise rows carry their own batch IDs and
// must respect the store's append ordering.
type ingestRequest struct {
	Rows      []ingestRow `json:"rows"`
	AutoBatch bool        `json:"auto_batch"`
}

// ingestReply acknowledges durable rows: when it arrives with a 200 the
// batch is in the WAL under the store's sync policy.
type ingestReply struct {
	Acked     int     `json:"acked"`
	Batch     *uint32 `json:"batch,omitempty"` // assigned ID under auto_batch (pointer: ID 0 is valid)
	Rows      int     `json:"rows"`            // store rows after the append
	NextBatch uint32  `json:"next_batch"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	var req ingestRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxIngestBody)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Rows) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("no rows"))
		return
	}
	rows := make([]model.Instance, len(req.Rows))
	for i, in := range req.Rows {
		rows[i] = model.Instance{
			Batch: in.Batch, TaskType: in.TaskType, Item: in.Item, Worker: in.Worker,
			Start: in.Start, End: in.End, Trust: in.Trust, Answer: in.Answer,
		}
	}
	var reply ingestReply
	var err error
	if req.AutoBatch {
		// Assign-and-append under one lock so concurrent auto-batch
		// ingests get distinct IDs in the order they append.
		s.ingestMu.Lock()
		b := s.ls.NextBatch()
		for i := range rows {
			rows[i].Batch = b
		}
		err = s.ls.Append(rows)
		s.ingestMu.Unlock()
		reply.Batch = &b
	} else {
		s.ingestMu.Lock()
		err = s.ls.Append(rows)
		s.ingestMu.Unlock()
	}
	if err != nil {
		switch {
		case errors.Is(err, store.ErrDegraded):
			// Read-only degraded mode: the disk is full but queries keep
			// answering. 507 tells the writer precisely why its rows were
			// refused; the background probe re-arms writes when space
			// returns.
			writeErr(w, http.StatusInsufficientStorage, err)
		case errors.Is(err, store.ErrLiveFailed):
			writeErr(w, http.StatusServiceUnavailable, err)
		default:
			writeErr(w, http.StatusBadRequest, err)
		}
		return
	}
	s.ingests.Add(1)
	s.ingestRows.Add(int64(len(rows)))
	reply.Acked = len(rows)
	reply.Rows = s.ls.Rows()
	reply.NextBatch = s.ls.NextBatch()
	writeJSON(w, reply)
}

// statsReply is the /stats response: store shape, MVCC view counters,
// plan-cache effectiveness, and request totals.
type statsReply struct {
	Rows           int             `json:"rows"`
	SealedSegments int             `json:"sealed_segments"`
	NextBatch      uint32          `json:"next_batch"`
	View           store.ViewStats `json:"view"`
	PlanCache      planCacheReply  `json:"plan_cache"`
	Queries        int64           `json:"queries"`
	QueryErrors    int64           `json:"query_errors"`
	Ingests        int64           `json:"ingests"`
	IngestRows     int64           `json:"ingest_rows"`
	Compacted      int64           `json:"compacted_segments"`
	CheckpointErr  string          `json:"checkpoint_error,omitempty"`
	UptimeSeconds  float64         `json:"uptime_seconds"`

	Inflight       int64  `json:"inflight"`   // requests being served now
	Queued         int64  `json:"queued"`     // queries waiting for a slot
	Shed           int64  `json:"shed"`       // queries refused 429
	Cancelled      int64  `json:"cancelled"`  // queries abandoned by clients
	Timeouts       int64  `json:"timeouts"`   // queries past their deadline
	Panics         int64  `json:"panics"`     // handler panics -> 500
	Recoveries     int64  `json:"recoveries"` // degraded->healthy transitions
	Degraded       bool   `json:"degraded"`   // store is read-only right now
	DegradedReason string `json:"degraded_reason,omitempty"`
}

type planCacheReply struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.pn.CacheStats()
	reply := statsReply{
		Rows:           s.ls.Rows(),
		SealedSegments: s.ls.SealedSegments(),
		NextBatch:      s.ls.NextBatch(),
		View:           s.ls.ViewStats(),
		PlanCache:      planCacheReply{Hits: hits, Misses: misses},
		Queries:        s.queries.Load(),
		QueryErrors:    s.queryErrs.Load(),
		Ingests:        s.ingests.Load(),
		IngestRows:     s.ingestRows.Load(),
		Compacted:      s.compactions.Load(),
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Inflight:       s.inflightN.Load(),
		Queued:         s.queuedN.Load(),
		Shed:           s.shed.Load(),
		Cancelled:      s.cancelled.Load(),
		Timeouts:       s.timeouts.Load(),
		Panics:         s.panics.Load(),
		Recoveries:     s.recoveries.Load(),
	}
	reply.Degraded, reply.DegradedReason = s.ls.Degraded()
	if v, ok := s.ckptErr.Load().(string); ok {
		reply.CheckpointErr = v
	}
	writeJSON(w, reply)
}

// handleHealthz answers 200 always — degraded is alive (queries still
// work); the status field tells orchestration which mode it found.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if deg, reason := s.ls.Degraded(); deg {
		writeJSON(w, map[string]string{"status": "degraded", "reason": reason})
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}
