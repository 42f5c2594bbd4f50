package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crowdscope/internal/query"
	"crowdscope/internal/query/lang"
	"crowdscope/internal/store"
	"crowdscope/internal/wal"
)

// layers fills the per-layer metrics of a serve workload after its traced
// pass. Nothing under internal/ is instrumented: the handler's time comes
// from the span middleware, and what happens inside it is measured by
// replaying the same texts and payloads through the public function of
// each stage. Replayed stages are attached to the sampled requests as
// child spans laid end to end from the handler span's start, so the
// self-time table shows how much of a handler span the stages explain.
func (r *serveRun) layers(tr *tracer, p *servePass) error {
	m := r.m
	handler := make(map[uint64]span)
	client := make(map[uint64]span)
	var transport samples
	byClass := make(map[string]samples)
	for _, s := range tr.all() {
		if cls, ok := strings.CutPrefix(s.Name, "serve.handler."); ok {
			handler[s.Req] = s
			byClass[cls] = append(byClass[cls], s.Dur)
		} else if strings.HasPrefix(s.Name, "client.") {
			client[s.Req] = s
		}
	}
	for req, h := range handler {
		if c, ok := client[req]; ok && c.Name != "client.ingest" {
			transport = append(transport, c.Dur-h.Dur)
		}
	}
	m.setSeconds("serve.handler_s.point", byClass["P1"].median())
	m.setSeconds("serve.handler_s.scan", byClass["S1"].median())
	m.setSeconds("serve.transport_s", transport.median())
	m.setSeconds("serve.ingest_handler_s", byClass["ingest"].median())

	if err := r.replayQueries(tr, p, handler); err != nil {
		return err
	}
	if !r.ingest {
		return nil
	}
	if err := r.replayIngest(tr, p, handler); err != nil {
		return err
	}
	return r.maintenance()
}

// replayQueries runs each sampled request's text through the handler's
// stages on the live store's current view.
func (r *serveRun) replayQueries(tr *tracer, p *servePass, handler map[uint64]span) error {
	stage := make(map[string]samples)
	pn := query.NewPlanner(planCacheSize)
	ctx := context.Background()
	var scanned, matched, segs, pruned int64
	var cold, hit samples
	for c := class(0); c < numClasses; c++ {
		for _, sm := range p.sample[c] {
			h, ok := handler[sm.req]
			if !ok {
				continue
			}
			text := sm.p.Text
			at := h.Start
			child := func(name string, d time.Duration) {
				tr.add(span{Name: name, Parent: h.Name, Req: sm.req, Lane: h.Lane, Start: at, Dur: d, Replayed: true})
				at += d
			}
			t := time.Now()
			lq, err := lang.Parse(text)
			if err != nil {
				return err
			}
			d := time.Since(t)
			stage["lang.parse"] = append(stage["lang.parse"], d)
			child("lang.parse", d)

			t = time.Now()
			q, err := query.Compile(lq)
			if err != nil {
				return err
			}
			q.Workers = engineWorkers
			if q.NeedsTables() {
				q.Tables = r.tabs
			}
			d = time.Since(t)
			stage["query.compile"] = append(stage["query.compile"], d)
			child("query.compile", d)

			t = time.Now()
			view := r.ls.View()
			d = time.Since(t)
			child("store.view", d)

			// A fresh planner plans cold; asking again hits its cache.
			fresh := query.NewPlanner(planCacheSize)
			t = time.Now()
			if _, err := fresh.Explain(view, q); err != nil {
				return err
			}
			cold = append(cold, time.Since(t))
			t = time.Now()
			if _, err := fresh.Explain(view, q); err != nil {
				return err
			}
			hit = append(hit, time.Since(t))

			// The shared planner sees the sample the way the server's saw
			// the pass: repeats of a text hit, new texts miss.
			t = time.Now()
			if _, err := pn.Explain(view, q); err != nil {
				return err
			}
			d = time.Since(t)
			child("query.plan", d)

			t = time.Now()
			res, err := pn.RunContext(ctx, view, q)
			if err != nil {
				return err
			}
			d = time.Since(t)
			stage["query.run."+classNames[c]] = append(stage["query.run."+classNames[c]], d)
			child("query.run", d)
			if c.isPoint() {
				scanned += res.Stats.RowsScanned
				matched += res.Stats.RowsMatched
				segs += int64(res.Stats.Segments)
				pruned += int64(res.Stats.SegmentsPruned)
			}

			t = time.Now()
			if err := encodeGroups(io.Discard, res, q); err != nil {
				return err
			}
			d = time.Since(t)
			stage["serve.encode."+classNames[c]] = append(stage["serve.encode."+classNames[c]], d)
			child("serve.encode", d)
		}
	}
	m := r.m
	m.setSeconds("lang.parse_s", stage["lang.parse"].median())
	m.setSeconds("query.compile_s", stage["query.compile"].median())
	m.setSeconds("query.plan_cold_s", cold.median())
	m.setSeconds("query.plan_hit_s", hit.median())
	m.setSeconds("query.run_s.point", stage["query.run.P1"].median())
	m.setSeconds("query.run_s.scan", stage["query.run.S1"].median())
	m.setSeconds("serve.encode_s.scan", stage["serve.encode.S1"].median())
	if matched > 0 {
		m.set("query.rows_scanned_per_match.point", float64(scanned)/float64(matched))
	}
	if segs > 0 {
		m.set("query.segments_pruned_frac.point", float64(pruned)/float64(segs))
	}
	if !r.ingest {
		// Nothing was appended, so every View call returns the cached view.
		var views samples
		for i := 0; i < 200; i++ {
			t := time.Now()
			r.ls.View()
			views = append(views, time.Since(t))
		}
		m.setSeconds("store.view_s", views.median())
	}
	return nil
}

// replayIngest sends the sampled posts' payloads through the ingest
// stages on scratch directories: JSON decode, LiveStore.Append under
// SyncAlways (with the fsync wait it contains), the view refresh a
// following query would pay, and bare WAL appends with and without sync.
func (r *serveRun) replayIngest(tr *tracer, p *servePass, handler map[uint64]span) error {
	if len(p.posted) == 0 {
		return fmt.Errorf("the traced pass acknowledged no ingest post to replay")
	}
	fs := newCountingFS()
	ls, err := openLive(filepath.Join(r.o.tmp, "replay-live"), fs)
	if err != nil {
		return err
	}
	defer ls.Close()
	var appends, views samples
	var recordBytes int64
	for n := 0; n < 200; n++ {
		var sm *sampled
		post := p.posted[0].post + n
		if n < len(p.posted) {
			sm = &p.posted[n]
			post = sm.post
		}
		payload := r.ingestPayload(post)
		t := time.Now()
		var req wireIngest
		if err := json.Unmarshal(payload, &req); err != nil {
			return err
		}
		decode := time.Since(t)

		rows := r.ingestBatch(post)
		batch := ls.NextBatch()
		for i := range rows {
			rows[i].Batch = batch
		}
		before := fs.snapshot()
		t = time.Now()
		if err := ls.Append(rows); err != nil {
			return err
		}
		d := time.Since(t)
		appends = append(appends, d)
		delta := fs.snapshot().since(before)
		recordBytes = delta.writeBytes
		var synced time.Duration
		for _, s := range delta.syncTimes {
			synced += s
		}
		t = time.Now()
		ls.View()
		views = append(views, time.Since(t))

		if sm == nil {
			continue
		}
		if h, ok := handler[sm.req]; ok {
			tr.add(span{Name: "serve.decode", Parent: h.Name, Req: sm.req, Lane: h.Lane, Start: h.Start, Dur: decode, Replayed: true})
			tr.add(span{Name: "store.append", Parent: h.Name, Req: sm.req, Lane: h.Lane, Start: h.Start + decode, Dur: d, Replayed: true})
			tr.add(span{Name: "vfs.sync", Parent: "store.append", Req: sm.req, Lane: h.Lane, Start: h.Start + decode + d - synced, Dur: synced, Replayed: true})
		}
	}
	r.m.setSeconds("store.append_s", appends.median())
	r.m.setSeconds("store.view_s", views.median())

	record := make([]byte, recordBytes)
	for name, policy := range map[string]wal.SyncPolicy{"wal.append_nosync_s": wal.SyncNone, "wal.append_sync_s": wal.SyncAlways} {
		log, err := wal.Open(filepath.Join(r.o.tmp, name), wal.Options{Sync: policy})
		if err != nil {
			return err
		}
		var times samples
		for n := 0; n < 200; n++ {
			t := time.Now()
			if _, err := log.Append(record); err != nil {
				log.Close()
				return err
			}
			times = append(times, time.Since(t))
		}
		if err := log.Close(); err != nil {
			return err
		}
		r.m.setSeconds(name, times.median())
	}
	return nil
}

// maintenance times the background work directly on the store the run
// ended with: a full checkpoint, and a compaction on a copy (compacting
// the served store would change what the final checks see).
func (r *serveRun) maintenance() error {
	var ckpt samples
	for i := 0; i < 3; i++ {
		t := time.Now()
		if err := r.ls.Checkpoint(); err != nil {
			return err
		}
		ckpt = append(ckpt, time.Since(t))
	}
	r.m.setSeconds("store.checkpoint_s", ckpt.median())

	// How much of the crash image's recovery was WAL replay: recovered
	// rows less the rows its checkpoint snapshot holds.
	crash := filepath.Join(r.o.tmp, "crash-0")
	names, err := filepath.Glob(filepath.Join(crash, "ckpt-*.crow"))
	if err != nil || len(names) != 1 {
		return fmt.Errorf("crash image has %d checkpoint snapshots (err %v)", len(names), err)
	}
	f, err := os.Open(names[0])
	if err != nil {
		return err
	}
	snap := store.New(0)
	_, err = snap.ReadFrom(f)
	f.Close()
	if err != nil {
		return err
	}
	ls, err := openLive(crash, nil)
	if err != nil {
		return err
	}
	defer ls.Close()
	r.m.set("store.replayed_rows", float64(ls.Rows()-snap.Len()))

	t := time.Now()
	ls.Compact(compactMaxRows)
	r.m.setSeconds("store.compact_s", time.Since(t))
	return nil
}
