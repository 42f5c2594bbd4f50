package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/serve"
	"crowdscope/internal/store"
	"crowdscope/internal/vfs"
	"crowdscope/internal/wal"
)

// The serve workloads' server settings, identical for serve-hot and
// serve-ingest and on every commit. SealRows and the compaction period
// are half crowdserved's smallest documented settings because a run here
// is 15 s, not minutes: at 400 posts/s of 50 rows they give ~9
// checkpoints (CheckpointRows stays at its default, 4*SealRows) and ~15
// compaction ticks per run, so background work completes several cycles
// and write amplification has levelled off by the end.
const (
	liveSealRows   = 1 << 13
	compactEvery   = time.Second
	compactMaxRows = 1 << 18 // crowdserved's default
)

func liveConfig(sync wal.SyncPolicy, fs vfs.FS) store.LiveConfig {
	return store.LiveConfig{SealRows: liveSealRows, Sync: sync, FS: fs}
}

// preload appends the generated store to a fresh live directory one
// Append per batch — the only write path a live store has — without
// fsyncs, then checkpoints and closes it, the state a cleanly shut down
// crowdserved leaves behind.
func preload(dir string, st *store.Store) error {
	ls, err := store.OpenLive(dir, liveConfig(wal.SyncNone, nil))
	if err != nil {
		return err
	}
	var rows []model.Instance
	for b := 0; b < st.NumBatches(); b++ {
		lo, hi := st.BatchRange(uint32(b))
		if hi == lo {
			continue
		}
		rows = rows[:0]
		for i := lo; i < hi; i++ {
			rows = append(rows, st.Row(i))
		}
		if err := ls.Append(rows); err != nil {
			ls.Close()
			return fmt.Errorf("preload batch %d: %w", b, err)
		}
	}
	if err := ls.Checkpoint(); err != nil {
		ls.Close()
		return err
	}
	return ls.Close()
}

// openLive opens a live directory the way crowdserved does by default:
// fsync on every append.
func openLive(dir string, fs vfs.FS) (*store.LiveStore, error) {
	return store.OpenLive(dir, liveConfig(wal.SyncAlways, fs))
}

// copyDir copies a directory tree file by file and returns the bytes
// copied. It is how a run takes the crash image of a live directory: the
// store is still open, nothing has been closed or flushed for the copy.
func copyDir(src, dst string) (int64, error) {
	var total int64
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		n, err := io.Copy(out, in)
		total += n
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		return err
	})
	return total, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// server is crowdserved assembled in this process: the same serve.Config
// cmd/crowdserved/main.go builds from its flag defaults (plus -tables and
// -workers 2), on a real loopback listener.
type server struct {
	hs  *http.Server
	url string
}

func newServeServer(ls *store.LiveStore, tabs *query.SideTables) (*serve.Server, error) {
	return serve.New(serve.Config{
		Store:            ls,
		Tables:           tabs,
		PlanCacheEntries: planCacheSize,
		QueryWorkers:     engineWorkers,
		CompactEvery:     compactEvery,
		CompactMaxRows:   compactMaxRows,
		QueryTimeout:     30 * time.Second,
		QueryTimeoutMax:  5 * time.Minute,
	})
}

// listen puts srv's handler on a fresh loopback listener. wrap, when not
// nil, is the traced pass's span middleware; the untraced pass serves the
// bare handler.
func listen(srv *serve.Server, wrap func(http.Handler) http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &server{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go s.hs.Serve(ln) // returns ErrServerClosed once unlisten shuts it down
	return s, nil
}

// unlisten stops the HTTP front end and waits for its connections; the
// serve.Server and the store stay up.
func (s *server) unlisten() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.hs.Shutdown(ctx)
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Rows      int             `json:"rows"`
	View      store.ViewStats `json:"view"`
	PlanCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"plan_cache"`
	Compacted int64 `json:"compacted_segments"`
	Queued    int64 `json:"queued"`
	Shed      int64 `json:"shed"`
	Timeouts  int64 `json:"timeouts"`
}

func (s *server) stats(h *httpConn) (serverStats, error) {
	var st serverStats
	code, body, err := h.get(s.url+"/stats", "")
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// spanMiddleware records one handler span per request that carries the
// load generator's request header.
func spanMiddleware(tr *tracer, lane int) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tag := r.Header.Get(reqHeader)
			if tag == "" {
				next.ServeHTTP(w, r)
				return
			}
			start := tr.now()
			next.ServeHTTP(w, r)
			id, cls, _ := strings.Cut(tag, ":")
			var req uint64
			fmt.Sscan(id, &req)
			tr.add(span{Name: "serve.handler." + cls, Parent: "client." + cls, Req: req, Lane: lane, Start: start, Dur: tr.now() - start})
		})
	}
}
