package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/query/lang"
	"crowdscope/internal/store"
	"crowdscope/internal/wal"
)

// testLiveCfg keeps segments small so handler tests exercise sealing
// and compaction without bulk data.
var testLiveCfg = store.LiveConfig{
	SealRows:       100,
	CheckpointRows: -1,
	Sync:           wal.SyncNone,
	SegmentBytes:   4096,
}

// rowAt derives one ingest row purely from its index within the batch,
// so every batch's content — and therefore every per-batch aggregate —
// is known to the test without tracking which writer sent it.
func rowAt(j int) ingestRow {
	start := int64(1400000000) + int64(j)*7
	return ingestRow{
		TaskType: uint32(j % 8),
		Item:     uint32(j),
		Worker:   uint32(100 + j%50),
		Start:    start,
		End:      start + 30 + int64(j%600),
		Trust:    float32(j%1000) / 1000,
		Answer:   uint32(j % 4),
	}
}

func batchRows(n int) []ingestRow {
	rows := make([]ingestRow, n)
	for j := range rows {
		rows[j] = rowAt(j)
	}
	return rows
}

// newTestServer opens a live store in a temp dir and wraps it in a
// Server; both are torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *store.LiveStore) {
	t.Helper()
	ls, err := store.OpenLive(t.TempDir(), testLiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	cfg.Store = ls
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, ls
}

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func decode(t *testing.T, w *httptest.ResponseRecorder, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
}

func TestServeIngestAndQuery(t *testing.T) {
	s, ls := newTestServer(t, Config{})
	h := s.Handler()

	// Two explicit batches, then one auto-assigned.
	const per = 40
	for b := 0; b < 2; b++ {
		rows := batchRows(per)
		for j := range rows {
			rows[j].Batch = uint32(b)
		}
		w := postJSON(t, h, "/ingest", ingestRequest{Rows: rows})
		if w.Code != http.StatusOK {
			t.Fatalf("ingest batch %d: %d %s", b, w.Code, w.Body.String())
		}
		var rep ingestReply
		decode(t, w, &rep)
		if rep.Acked != per || rep.Rows != (b+1)*per || rep.NextBatch != uint32(b+1) {
			t.Fatalf("ingest reply %+v", rep)
		}
	}
	w := postJSON(t, h, "/ingest", ingestRequest{Rows: batchRows(per), AutoBatch: true})
	var rep ingestReply
	decode(t, w, &rep)
	if w.Code != http.StatusOK || rep.Batch == nil || *rep.Batch != 2 || rep.Rows != 3*per {
		t.Fatalf("auto-batch ingest: %d %+v", w.Code, rep)
	}

	// The query answer must match the engine run directly on a view.
	qText := "where trust >= 0.5 | group tasktype | value duration"
	w = get(h, "/query?q="+escape(qText))
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	var qr queryReply
	decode(t, w, &qr)
	if qr.Rows != 3*per {
		t.Fatalf("query saw %d rows, want %d", qr.Rows, 3*per)
	}
	parsed, err := lang.Parse(qText)
	if err != nil {
		t.Fatal(err)
	}
	lq, err := query.Compile(parsed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.Exec(context.Background(), query.Source{Store: ls.View()}, lq, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Groups) != len(want.Groups) {
		t.Fatalf("%d groups, want %d", len(qr.Groups), len(want.Groups))
	}
	for i, g := range qr.Groups {
		wg := want.Groups[i]
		if g.Key != wg.Key || g.Count != wg.Count || g.Sum == nil || *g.Sum != wg.Sum {
			t.Fatalf("group %d = %+v, want %+v", i, g, wg)
		}
	}

	// Same query again: same generation (only reads since), so the plan
	// cache must hit, and explain must say so.
	w = get(h, "/query?q="+escape(qText)+"&explain=1")
	decode(t, w, &qr)
	if qr.Plan == "" || qr.Cached == nil || !*qr.Cached {
		t.Fatalf("second run not a plan-cache hit: plan=%q cached=%v", qr.Plan, qr.Cached)
	}

	var st statsReply
	decode(t, get(h, "/stats"), &st)
	if st.Rows != 3*per || st.Ingests != 3 || st.IngestRows != 3*per {
		t.Fatalf("stats %+v", st)
	}
	if st.Queries < 2 || st.PlanCache.Hits < 1 || st.PlanCache.Misses < 1 {
		t.Fatalf("stats counters %+v", st)
	}
}

// TestQueryIsOnePlanLookup: every /query — cold or warm, with or without
// explain — asks the plan cache once, so /stats' hits + misses move by
// exactly one per request.
func TestQueryIsOnePlanLookup(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	if w := postJSON(t, h, "/ingest", ingestRequest{Rows: batchRows(50), AutoBatch: true}); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
	}
	lookups := func() int64 {
		var st statsReply
		decode(t, get(h, "/stats"), &st)
		return st.PlanCache.Hits + st.PlanCache.Misses
	}
	for _, path := range []string{
		"/query?q=" + escape("group tasktype") + "&explain=1", // cold
		"/query?q=" + escape("group tasktype") + "&explain=1", // warm
		"/query?q=" + escape("group tasktype"),
		"/query?q=" + escape("group batch"), // cold
		"/query?q=" + escape("group batch") + "&explain=1",
	} {
		before := lookups()
		if w := get(h, path); w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, w.Code, w.Body.String())
		}
		if n := lookups() - before; n != 1 {
			t.Errorf("%s moved plan-cache hits + misses by %d, want 1", path, n)
		}
	}
}

// TestServeReportsGranulePruning: once compaction has merged the ingested
// batches into one segment, a narrow time window is answered from the
// granules it can reach, and the reply says so — stats on every reply,
// the plan's granules line under explain — from one classification.
func TestServeReportsGranulePruning(t *testing.T) {
	s, ls := newTestServer(t, Config{})
	h := s.Handler()
	// Four batches of 6,000 rows; the fourth stays open and seals the third.
	for b := 0; b < 4; b++ {
		if w := postJSON(t, h, "/ingest", ingestRequest{Rows: batchRows(6000), AutoBatch: true}); w.Code != http.StatusOK {
			t.Fatalf("ingest batch %d: %d %s", b, w.Code, w.Body.String())
		}
	}
	if merged := ls.Compact(1 << 18); merged != 2 {
		t.Fatalf("compaction merged %d segments, want 2", merged)
	}
	// The first 1,000 rows of every batch: granules 0-3 of the merged
	// 18,000-row segment reach them, its fifth cannot.
	qText := "where start in [1400000000, 1400007000) | group batch"
	var qr queryReply
	w := get(h, "/query?q="+escape(qText)+"&explain=1")
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	decode(t, w, &qr)
	if qr.Stats.RowsMatched != 4000 || qr.Stats.Granules != 5 || qr.Stats.GranulesPruned != 1 ||
		qr.Stats.RowsScanned != 4*4096+6000 {
		t.Errorf("stats %+v, want 4,000 rows matched, 1 of 5 granules pruned, 4 granules and the open tail scanned", qr.Stats)
	}
	if want := "granules: 4 of 5 scanned (1 pruned, 0 covered)\n"; !strings.Contains(qr.Plan, want) {
		t.Errorf("plan lacks %q:\n%s", want, qr.Plan)
	}
}

func TestServeErrors(t *testing.T) {
	s, ls := newTestServer(t, Config{})
	h := s.Handler()

	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		code int
	}{
		{"missing q", func() *httptest.ResponseRecorder { return get(h, "/query") }, http.StatusBadRequest},
		{"parse error", func() *httptest.ResponseRecorder { return get(h, "/query?q="+escape("where nope == 1")) }, http.StatusBadRequest},
		{"join without tables", func() *httptest.ResponseRecorder {
			return get(h, "/query?q="+escape("where worker.class == super"))
		}, http.StatusBadRequest},
		{"ingest wrong method", func() *httptest.ResponseRecorder { return get(h, "/ingest") }, http.StatusMethodNotAllowed},
		{"ingest empty", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/ingest", ingestRequest{})
		}, http.StatusBadRequest},
		{"ingest batch regression", func() *httptest.ResponseRecorder {
			rows := batchRows(4)
			for j := range rows {
				rows[j].Batch = 7
			}
			postJSON(t, h, "/ingest", ingestRequest{Rows: rows})
			for j := range rows {
				rows[j].Batch = 3
			}
			return postJSON(t, h, "/ingest", ingestRequest{Rows: rows})
		}, http.StatusBadRequest},
		{"ingest row ending before it starts", func() *httptest.ResponseRecorder {
			rows := batchRows(4)
			for j := range rows {
				rows[j].Batch = 9
			}
			rows[2].End = rows[2].Start - 1
			before := ls.Rows()
			w := postJSON(t, h, "/ingest", ingestRequest{Rows: rows})
			if got := ls.Rows(); got != before {
				t.Errorf("refused ingest changed rows %d -> %d", before, got)
			}
			return w
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := tc.do()
		if w.Code != tc.code {
			t.Fatalf("%s: got %d %s, want %d", tc.name, w.Code, w.Body.String(), tc.code)
		}
		var er errorReply
		decode(t, w, &er)
		if er.Error == "" {
			t.Fatalf("%s: empty error body %q", tc.name, w.Body.String())
		}
	}
}

func TestServeShutdownDrainsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ls, err := store.OpenLive(dir, testLiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	s, err := New(Config{Store: ls})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if w := postJSON(t, h, "/ingest", ingestRequest{Rows: batchRows(30), AutoBatch: true}); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
	}
	if w := get(h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatalf("second close: %v", err)
	}
	if w := get(h, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: %d, want 503", w.Code)
	}
	// The final checkpoint landed: the CHECKPOINT meta exists and a
	// reopen recovers every acked row from the snapshot.
	if _, err := os.Stat(filepath.Join(dir, "CHECKPOINT")); err != nil {
		t.Fatalf("no CHECKPOINT after shutdown: %v", err)
	}
	ls.Close()
	ls2, err := store.OpenLive(dir, testLiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls2.Close()
	if ls2.Rows() != 30 {
		t.Fatalf("recovered %d rows, want 30", ls2.Rows())
	}
}

// TestServeConcurrent is the live-service property test: querying
// clients race appending writers and the background compactor over
// loopback HTTP, under -race. Every response must describe one
// consistent MVCC snapshot: batches are acknowledged whole, so every
// batch a query sees must be complete, batch IDs must form a gapless
// prefix (auto-batch assignment is ordered with its append), and
// per-batch aggregates must equal the values computed from the known
// batch content. The plan cache must keep hitting while ingest grows
// the open tail.
func TestServeConcurrent(t *testing.T) {
	const (
		writers   = 3
		clients   = 4
		batches   = 30 // per writer
		per       = 25 // rows per batch
		compactMs = 2
	)
	s, _ := newTestServer(t, Config{
		CompactEvery:   compactMs * time.Millisecond,
		CompactMaxRows: 1 << 16,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The per-batch reference aggregate: every batch carries the same
	// index-derived rows, so its trust sum is one known constant.
	var wantSum float64
	for j := 0; j < per; j++ {
		wantSum += float64(rowAt(j).Trust)
	}

	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, args ...interface{}) {
		if !failed.Swap(true) {
			t.Errorf(format, args...)
		}
	}
	body, _ := json.Marshal(ingestRequest{Rows: batchRows(per), AutoBatch: true})
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches && !failed.Load(); b++ {
				resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					fail("ingest: %v", err)
					return
				}
				var rep ingestReply
				err = json.NewDecoder(resp.Body).Decode(&rep)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail("ingest: status %d err %v", resp.StatusCode, err)
					return
				}
				if rep.Acked != per {
					fail("acked %d of %d rows", rep.Acked, per)
					return
				}
			}
		}()
	}
	qURL := ts.URL + "/query?q=" + escape("group batch | value trust")
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4*batches && !failed.Load(); i++ {
				resp, err := http.Get(qURL)
				if err != nil {
					fail("query: %v", err)
					return
				}
				var qr queryReply
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail("query: status %d err %v", resp.StatusCode, err)
					return
				}
				// Snapshot consistency: complete batches only, gapless
				// IDs, totals that add up, content matching the batch.
				if qr.Rows != len(qr.Groups)*per {
					fail("view of %d rows but %d complete batches", qr.Rows, len(qr.Groups))
					return
				}
				for k, g := range qr.Groups {
					if g.Key != int64(k) {
						fail("batch IDs not gapless: group %d has key %d", k, g.Key)
						return
					}
					if g.Count != per {
						fail("batch %d torn: %d of %d rows visible", g.Key, g.Count, per)
						return
					}
					if g.Sum == nil || math.Abs(*g.Sum-wantSum) > 1e-6*wantSum {
						fail("batch %d content wrong: sum %v, want %v", g.Key, g.Sum, wantSum)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsReply
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != writers*batches*per {
		t.Fatalf("final rows %d, want %d", st.Rows, writers*batches*per)
	}
	// Tail-only growth preserves the view generation, so the repeated
	// query text must have kept hitting the plan cache: far more hits
	// than the handful of generation bumps sealing caused misses for.
	if st.PlanCache.Hits <= st.PlanCache.Misses {
		t.Fatalf("plan cache ineffective under ingest: %+v", st.PlanCache)
	}
}

// escape is a minimal query-string escaper for test query texts.
func escape(s string) string {
	var b bytes.Buffer
	for _, r := range s {
		switch {
		case r == ' ':
			b.WriteByte('+')
		case r == '+' || r == '&' || r == '=' || r == '#' || r == '%' || r == '|' || r >= 0x80:
			fmt.Fprintf(&b, "%%%02X", r)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// BenchmarkServeQuery measures the hot serving path — plan-cache hit,
// MVCC view reuse, JSON response — over real loopback HTTP while a
// background writer keeps appending. ns/op is the full request
// round-trip of an 8-group reply, so the query and the transport dominate
// it, not the reply encoder (BenchmarkAppendGroups times that on S1's and
// S4's replies). The CI gate's baseline sits 4x below a 1,000
// queries/sec floor (1e6 ns/op).
func BenchmarkServeQuery(b *testing.B) {
	dir := b.TempDir()
	cfg := testLiveCfg
	cfg.SealRows = 1 << 14
	ls, err := store.OpenLive(dir, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer ls.Close()
	var batch uint32
	appendBatch := func(rows int) {
		ins := make([]model.Instance, rows)
		for j := range ins {
			r := rowAt(j)
			ins[j] = model.Instance{
				Batch: batch, TaskType: r.TaskType, Item: r.Item, Worker: r.Worker,
				Start: r.Start, End: r.End, Trust: r.Trust, Answer: r.Answer,
			}
		}
		if err := ls.Append(ins); err != nil {
			b.Fatal(err)
		}
		batch++
	}
	for i := 0; i < 500; i++ {
		appendBatch(100)
	}
	s, err := New(Config{Store: ls})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Concurrent ingest: one writer appends throughout the measurement.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				appendBatch(50)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	defer func() { close(stop); <-done }()

	url := ts.URL + "/query?q=" + escape("where trust >= 0.8 | group tasktype | value duration")
	warm, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	warm.Body.Close()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			var qr queryReply
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
	b.StopTimer()
	hits, misses := s.pn.CacheStats()
	b.ReportMetric(float64(hits)/float64(hits+misses), "cache-hit-ratio")
}
