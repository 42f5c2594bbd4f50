package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/synth"
)

// groupReply and queryReply are the wire structs /query handed to
// encoding/json before the reply was appended by hand. They stay here as
// the reference the hand-rolled bytes must equal, and as what the tests
// decode replies into.
type groupReply struct {
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

type queryReply struct {
	Query      string       `json:"query"`
	Rows       int          `json:"rows"`
	Generation uint64       `json:"generation"`
	Groups     []groupReply `json:"groups"`
	Stats      query.Stats  `json:"stats"`
	Plan       string       `json:"plan,omitempty"`
	Cached     *bool        `json:"cached,omitempty"`
}

// refGroups builds the old wire groups for a result, as handleQuery did.
func refGroups(q *query.Query, groups []query.Group) []groupReply {
	out := make([]groupReply, len(groups))
	for i, g := range groups {
		gr := groupReply{Key: g.Key, Count: g.Count}
		if len(q.GroupBys) > 1 {
			k2 := g.Key2
			gr.Key2 = &k2
		}
		if q.Value != query.ValueNone {
			sum, mean, lo, hi := g.Sum, g.Mean(), g.Min, g.Max
			gr.Sum, gr.Mean, gr.Min, gr.Max = &sum, &mean, &lo, &hi
		}
		if q.P50 {
			p50 := g.P50
			gr.P50 = &p50
		}
		if q.Distinct != query.ColNone {
			d := g.Distinct
			gr.Distinct = &d
		}
		out[i] = gr
	}
	return out
}

// TestAppendGroupsMatchesEncodingJSON: for every reply shape and for
// floats on both sides of each formatting boundary, the appended groups
// are byte for byte what encoding/json wrote for the old struct.
func TestAppendGroupsMatchesEncodingJSON(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 1e6, 123456789012, 0.5, -0.25, 1.0 / 3,
		1e21, 1e21 - 65536, 1.5e21, -1e21, 1e22, 1e-6, 1e-7, 9.99e-7, -1e-7, 1.234e-9,
		1e100, 1e-100, math.MaxFloat64, math.SmallestNonzeroFloat64, math.MaxInt64, -(1 << 53),
		float64(float32(0.1)), 1e20, 99999999999999999999,
	}
	r := rand.New(rand.NewSource(7))
	draw := func() float64 {
		switch r.Intn(5) {
		case 0:
			return special[r.Intn(len(special))]
		case 1:
			return float64(r.Int63n(1<<40) - 1<<39) // integers as floats
		case 2:
			return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.Intn(2046)+1)<<52) // any finite exponent
		case 3:
			return float64(math.Float32frombits(r.Uint32()&^(0xff<<23) | uint32(r.Intn(254)+1)<<23)) // widened float32, as trust is
		}
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
	}
	shapes := []query.Query{
		{},
		{Value: query.ValueTrust},
		{Value: query.ValueDuration, P50: true},
		{Distinct: query.ColWorker},
		{GroupBys: []query.GroupBy{query.GroupTaskType, query.GroupWorkerCountry}, Value: query.ValueTrust},
		{GroupBys: []query.GroupBy{query.GroupWeek, query.GroupWorker}, Value: query.ValueStart, P50: true, Distinct: query.ColItem},
	}
	for si := range shapes {
		q := &shapes[si]
		for _, n := range []int{0, 1, 2, 300} {
			groups := make([]query.Group, n)
			for i := range groups {
				groups[i] = query.Group{
					Key: r.Int63() - r.Int63(), Key2: r.Int63() - r.Int63(), Count: 1 + r.Int63n(1<<30),
					Sum: draw(), Min: draw(), Max: draw(), P50: draw(), Distinct: r.Intn(1 << 20),
				}
			}
			for i, f := range special {
				if i < n {
					groups[i].Sum, groups[i].Min, groups[i].Max, groups[i].P50 = f, f, f, f
				}
			}
			got, err := appendGroups(nil, q, groups)
			if err != nil {
				t.Fatalf("shape %d, %d groups: %v", si, n, err)
			}
			want, err := json.Marshal(refGroups(q, groups))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("shape %d, %d groups: bytes differ\n got:  %.400s\n want: %.400s", si, n, got, want)
			}
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := &query.Query{Value: query.ValueTrust}
		if _, err := appendGroups(nil, q, []query.Group{{Count: 1, Sum: 1, Min: f, Max: 1}}); err == nil {
			t.Fatalf("appendGroups accepted %v", f)
		}
	}
}

// replyServer holds a few batches whose group counts differ, so a sort by
// count reorders them.
func replyServer(t *testing.T) http.Handler {
	t.Helper()
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for b, n := range []int{30, 90, 10, 60, 45} {
		rows := batchRows(n)
		for j := range rows {
			rows[j].Batch = uint32(b)
		}
		if w := postJSON(t, h, "/ingest", ingestRequest{Rows: rows}); w.Code != http.StatusOK {
			t.Fatalf("ingest: %d %s", w.Code, w.Body)
		}
	}
	return h
}

// TestQueryReplyBytesUnchanged: a reply without sort or top is byte for
// byte the old struct through encoding/json's Encoder — field order,
// omitempty, HTML-escaped text, stats, plan and cached included.
func TestQueryReplyBytesUnchanged(t *testing.T) {
	h := replyServer(t)
	for _, text := range []string{
		"group batch",
		"where duration >= 100 and trust < 0.9 | group tasktype | value trust",
		"where batch in {1, 3} | group batch, tasktype | value duration | p50 | distinct worker",
		"where worker == 4000000000",
	} {
		for _, explain := range []string{"", "&explain=1"} {
			w := get(h, "/query?q="+escape(text)+explain)
			if w.Code != http.StatusOK {
				t.Fatalf("%q: %d %s", text, w.Code, w.Body)
			}
			var qr queryReply
			decode(t, w, &qr)
			if qr.Groups == nil {
				qr.Groups = []groupReply{} // the handler never wrote null
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(qr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
				t.Fatalf("%q%s: reply is not the old encoding\n got:  %s\n want: %s", text, explain, w.Body, &want)
			}
			if explain != "" && (qr.Plan == "" || qr.Cached == nil) {
				t.Fatalf("%q: explain reply lacks plan/cached: %s", text, w.Body)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("content type %q", ct)
			}
		}
	}
}

// TestQuerySortAndTop is the regression for /query ignoring the sort and
// top stages: groups come back ordered by descending count (stable on
// key) and cut to the top N, while stats still describe the whole scan.
func TestQuerySortAndTop(t *testing.T) {
	h := replyServer(t)
	var all, sorted, top queryReply
	decode(t, get(h, "/query?q="+escape("group batch")), &all)
	decode(t, get(h, "/query?q="+escape("group batch | sort count")), &sorted)
	w := get(h, "/query?q="+escape("group batch | sort count | top 3"))
	if w.Code != http.StatusOK {
		t.Fatalf("sort/top: %d %s", w.Code, w.Body)
	}
	decode(t, w, &top)

	want := append([]groupReply(nil), all.Groups...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Count > want[j].Count })
	if len(all.Groups) != 5 || sort.SliceIsSorted(all.Groups, func(i, j int) bool { return all.Groups[i].Count > all.Groups[j].Count }) {
		t.Fatalf("fixture: key-ordered groups %+v must not already be count-ordered", all.Groups)
	}
	for i, g := range sorted.Groups {
		if len(sorted.Groups) != 5 || g.Key != want[i].Key || g.Count != want[i].Count {
			t.Fatalf("sort count: got %+v, want %+v", sorted.Groups, want)
		}
	}
	if len(top.Groups) != 3 {
		t.Fatalf("top 3 returned %d groups: %s", len(top.Groups), w.Body)
	}
	for i, g := range top.Groups {
		if g.Key != want[i].Key || g.Count != want[i].Count {
			t.Fatalf("top 3: got %+v, want %+v", top.Groups, want[:3])
		}
	}
	if top.Stats != all.Stats || top.Stats.RowsMatched != 235 {
		t.Fatalf("stats must describe the full scan: %+v vs %+v", top.Stats, all.Stats)
	}
	// top alone keeps key order; top 0 and a top past the end keep everything.
	var cut queryReply
	decode(t, get(h, "/query?q="+escape("group batch | top 2")), &cut)
	if len(cut.Groups) != 2 || cut.Groups[0].Key != 0 || cut.Groups[1].Key != 1 {
		t.Fatalf("top 2: %+v", cut.Groups)
	}
	for _, text := range []string{"group batch | top 0", "group batch | top 99"} {
		var qr queryReply
		decode(t, get(h, "/query?q="+escape(text)), &qr)
		if len(qr.Groups) != 5 {
			t.Fatalf("%q: %d groups", text, len(qr.Groups))
		}
	}
}

// TestQueryNaNAggregateIs500: an aggregate JSON cannot carry answers a
// 500 with the error envelope, not a 200 with a cut-off body.
func TestQueryNaNAggregateIs500(t *testing.T) {
	s, ls := newTestServer(t, Config{})
	h := s.Handler()
	nan := float32(math.NaN())
	if err := ls.Append([]model.Instance{
		{Batch: 0, Worker: 1, Start: 1400000000, End: 1400000060, Trust: 0.5},
		{Batch: 0, Worker: 2, Start: 1400000010, End: 1400000070, Trust: nan},
	}); err != nil {
		t.Fatal(err)
	}
	w := get(h, "/query?q="+escape("group batch | value trust"))
	var er errorReply
	decode(t, w, &er)
	if w.Code != http.StatusInternalServerError || !strings.Contains(er.Error, "NaN") {
		t.Fatalf("NaN aggregate: %d %s", w.Code, w.Body)
	}
	// The same rows without the value stage still answer.
	if w := get(h, "/query?q="+escape("group batch")); w.Code != http.StatusOK {
		t.Fatalf("count over the same rows: %d %s", w.Code, w.Body)
	}
}

// replyShape is one of the scan replies the serve benchmarks send: the
// query and the groups a real run returns.
type replyShape struct {
	name   string
	q      query.Query
	groups []query.Group
}

// benchReplies runs bench/'s S1 (at its 120 s threshold) and S4 on the
// 0.02 log (seed 1701, 16 segments), once per test binary: 4,014 and
// 32,658 groups.
var benchReplies = sync.OnceValues(func() ([]replyShape, error) {
	ds := synth.Generate(synth.Config{Seed: 1701, Scale: 0.02, Parallelism: 16})
	tabs := query.NewTables(ds.Workers, ds.Batches)
	var out []replyShape
	for _, c := range []struct{ name, text string }{
		{"tasktype-trust", "where duration >= 120 | group tasktype | value trust"},
		{"join-two-key", "where worker.class == super and (batch.sampled == true or duration >= 600) | group tasktype, worker.country | value trust"},
	} {
		q, err := query.ParseQuery(c.text)
		if err != nil {
			return nil, err
		}
		q.Tables = tabs
		res, err := query.Run(ds.Store, q)
		if err != nil {
			return nil, err
		}
		out = append(out, replyShape{c.name, q, res.Groups})
	}
	return out, nil
})

// BenchmarkAppendGroups times encoding a scan reply's groups array, the
// handler's largest stage after the query for S1 and S4.
func BenchmarkAppendGroups(b *testing.B) {
	shapes, err := benchReplies()
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if buf, err = appendGroups(buf[:0], &s.q, s.groups); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

// BenchmarkAppendFloat times one float of those replies a op: their sums,
// means, minima and maxima in reply order.
func BenchmarkAppendFloat(b *testing.B) {
	shapes, err := benchReplies()
	if err != nil {
		b.Fatal(err)
	}
	var vals []float64
	for _, s := range shapes {
		for _, g := range s.groups {
			vals = append(vals, g.Sum, g.Mean(), g.Min, g.Max)
		}
	}
	var buf []byte
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		buf, _ = appendFloat(buf[:0], vals[j])
		if j++; j == len(vals) {
			j = 0
		}
	}
}
