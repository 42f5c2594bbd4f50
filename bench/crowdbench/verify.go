package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// naiveMatched is the column-scan twin of the filtered templates: how
// many rows a query must match, counted without the engine. ok is false
// for templates that have no twin (S4's join).
func naiveMatched(st *store.Store, q queryText) (n int64, ok bool) {
	switch q.Class {
	case P1:
		lo, hi := model.DayUnix(7*q.Week), model.DayUnix(7*(q.Week+4))
		starts := st.Starts()
		for i, w := range st.Workers() {
			if w == q.Worker && starts[i] >= lo && starts[i] < hi {
				n++
			}
		}
	case P2:
		lo, hi := model.DayUnix(7*q.Week), model.DayUnix(7*(q.Week+1))
		for _, s := range st.Starts() {
			if s >= lo && s < hi {
				n++
			}
		}
	case P3:
		for _, b := range st.Batches() {
			if b == q.Batch {
				n++
			}
		}
	case S1:
		ends := st.Ends()
		for i, s := range st.Starts() {
			if ends[i]-s >= q.MinDur {
				n++
			}
		}
	case S2, S5, S3:
		n = int64(st.Len())
	default:
		return 0, false
	}
	return n, true
}

// refQuery is a compiled query with the answer any path must reproduce.
type refQuery struct {
	text string
	q    query.Query
	want *query.Result
}

// referenced pairs each text of the class's fixed set with the answer
// query.Run gives on the generated store — itself held to the naive twin
// first, so the reference is not just the engine agreeing with the engine.
func (in *inputs) referenced(c class, n int, shuffle *rand.Rand) ([]refQuery, error) {
	var out []refQuery
	for _, qt := range in.fixedSet(c, n, shuffle) {
		q, err := compile(qt.Text, nil)
		if err != nil {
			return nil, err
		}
		want, err := query.Run(in.st, q)
		if err != nil {
			return nil, err
		}
		if n, _ := naiveMatched(in.st, qt); n != want.Stats.RowsMatched {
			return nil, fmt.Errorf("%q: reference matches %d rows, naive scan counts %d", qt.Text, want.Stats.RowsMatched, n)
		}
		out = append(out, refQuery{text: qt.Text, q: q, want: want})
	}
	return out, nil
}

// wireGroup and wireReply are /query's JSON reply as a client sees it.
type wireGroup struct {
	Key      int64    `json:"key"`
	Key2     *int64   `json:"key2,omitempty"`
	Count    int64    `json:"count"`
	Sum      *float64 `json:"sum,omitempty"`
	Mean     *float64 `json:"mean,omitempty"`
	Min      *float64 `json:"min,omitempty"`
	Max      *float64 `json:"max,omitempty"`
	P50      *float64 `json:"p50,omitempty"`
	Distinct *int     `json:"distinct,omitempty"`
}

type wireReply struct {
	Query      string      `json:"query"`
	Rows       int         `json:"rows"`
	Generation uint64      `json:"generation"`
	Groups     []wireGroup `json:"groups"`
	Stats      query.Stats `json:"stats"`
}

// checkReply holds a decoded reply to the engine's own answer on the
// reference store and to the naive twin: group for group, bit for bit.
func checkReply(got *wireReply, want *query.Result, matched int64, twin bool) error {
	if twin && got.Stats.RowsMatched != matched {
		return fmt.Errorf("rows_matched %d, naive scan counts %d", got.Stats.RowsMatched, matched)
	}
	var sum int64
	for _, g := range got.Groups {
		sum += g.Count
	}
	if sum != got.Stats.RowsMatched {
		return fmt.Errorf("group counts sum to %d, rows_matched %d", sum, got.Stats.RowsMatched)
	}
	if len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("%d groups, reference has %d", len(got.Groups), len(want.Groups))
	}
	for i, g := range got.Groups {
		w := want.Groups[i]
		if g.Key != w.Key || g.Count != w.Count {
			return fmt.Errorf("group %d: key/count %d/%d, reference %d/%d", i, g.Key, g.Count, w.Key, w.Count)
		}
		if g.Key2 != nil && *g.Key2 != w.Key2 {
			return fmt.Errorf("group %d: key2 %d, reference %d", i, *g.Key2, w.Key2)
		}
		if g.Sum != nil && (*g.Sum != w.Sum || *g.Min != w.Min || *g.Max != w.Max) {
			return fmt.Errorf("group %d: sum/min/max %v/%v/%v, reference %v/%v/%v", i, *g.Sum, *g.Min, *g.Max, w.Sum, w.Min, w.Max)
		}
		if g.P50 != nil && *g.P50 != w.P50 {
			return fmt.Errorf("group %d: p50 %v, reference %v", i, *g.P50, w.P50)
		}
		if g.Distinct != nil && *g.Distinct != w.Distinct {
			return fmt.Errorf("group %d: distinct %d, reference %d", i, *g.Distinct, w.Distinct)
		}
	}
	return nil
}

// sameResult compares two engine results (dataset or reloaded store
// against the in-memory reference).
func sameResult(got, want *query.Result) error {
	if got.Stats.RowsMatched != want.Stats.RowsMatched {
		return fmt.Errorf("rows_matched %d, reference %d", got.Stats.RowsMatched, want.Stats.RowsMatched)
	}
	if len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("%d groups, reference has %d", len(got.Groups), len(want.Groups))
	}
	for i := range got.Groups {
		if got.Groups[i] != want.Groups[i] {
			return fmt.Errorf("group %d: %+v, reference %+v", i, got.Groups[i], want.Groups[i])
		}
	}
	return nil
}

// statsOf decodes only the trailing stats object of a /query reply, so a
// multi-megabyte scan reply can be checked without decoding its groups.
func statsOf(body []byte) (rows int, st query.Stats, err error) {
	i := bytes.LastIndex(body, []byte(`"stats":`))
	j := bytes.Index(body, []byte(`"rows":`))
	if i < 0 || j < 0 {
		return 0, st, fmt.Errorf("reply has no stats or rows field")
	}
	if _, err := fmt.Sscanf(string(body[j+len(`"rows":`):min(j+40, len(body))]), "%d", &rows); err != nil {
		return 0, st, fmt.Errorf("reply rows field: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body[i+len(`"stats":`):]))
	if err := dec.Decode(&st); err != nil {
		return 0, st, fmt.Errorf("reply stats: %w", err)
	}
	return rows, st, nil
}

// encodeGroups is the stage replay of the handler's reply encoding: the
// same groups through encoding/json in the same wire shape.
func encodeGroups(w io.Writer, res *query.Result, q query.Query) error {
	groups := make([]wireGroup, len(res.Groups))
	for i, g := range res.Groups {
		wg := wireGroup{Key: g.Key, Count: g.Count}
		if len(q.GroupBys) > 1 {
			k2 := g.Key2
			wg.Key2 = &k2
		}
		if q.Value != query.ValueNone {
			sum, mean, lo, hi := g.Sum, g.Mean(), g.Min, g.Max
			wg.Sum, wg.Mean, wg.Min, wg.Max = &sum, &mean, &lo, &hi
		}
		if q.P50 {
			p := g.P50
			wg.P50 = &p
		}
		if q.Distinct != query.ColNone {
			d := g.Distinct
			wg.Distinct = &d
		}
		groups[i] = wg
	}
	return json.NewEncoder(w).Encode(wireReply{Query: q.Text(), Groups: groups, Stats: res.Stats})
}
