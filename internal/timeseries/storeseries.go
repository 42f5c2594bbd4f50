package timeseries

import (
	"context"

	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// Store-backed series: the weekly rollups that used to be hand-rolled
// full scans over the instance log now run through the query engine, so
// they chunk, parallelize, and zone-map-prune like every other query.
// Results are identical for every workers value (0 = GOMAXPROCS).

// WeeklyOf folds query groups keyed by week index into a weekly Series;
// out-of-span groups (pre-epoch key -1) are dropped, matching AddAt.
func WeeklyOf(groups []query.Group, val func(query.Group) float64) *Series {
	s := NewWeekly()
	for _, g := range groups {
		if g.Key >= 0 && g.Key < int64(len(s.Values)) {
			s.Values[g.Key] += val(g)
		}
	}
	return s
}

// textSeries parses the base query from its canonical query-language
// text — the same form crowdquery -q accepts — then ANDs in the caller's
// extra predicates (e.g. a dynamic worker ID set) and runs it.
func textSeries(st *store.Store, text string, workers int, where []query.Predicate) (*query.Result, error) {
	q, err := query.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	q.Where = append(q.Where, where...)
	q.Workers = workers
	return query.Exec(context.TODO(), query.Source{Store: st}, q, query.Options{})
}

// ActiveWorkerSeries counts distinct active workers per week over the
// instance log (the paper's Figure 4), optionally restricted by where.
func ActiveWorkerSeries(st *store.Store, workers int, where ...query.Predicate) (*Series, error) {
	res, err := textSeries(st, "group week | distinct worker", workers, where)
	if err != nil {
		return nil, err
	}
	return WeeklyOf(res.Groups, func(g query.Group) float64 { return float64(g.Distinct) }), nil
}

// WorkerEngagementSeries returns, per week, the task count and the total
// task seconds of the rows matching where (e.g. the top-10% worker set —
// the paper's Figure 5b split) in one scan.
func WorkerEngagementSeries(st *store.Store, workers int, where ...query.Predicate) (tasks, seconds *Series, err error) {
	res, err := textSeries(st, "group week | value duration", workers, where)
	if err != nil {
		return nil, nil, err
	}
	tasks = WeeklyOf(res.Groups, func(g query.Group) float64 { return float64(g.Count) })
	seconds = WeeklyOf(res.Groups, func(g query.Group) float64 { return g.Sum })
	return tasks, seconds, nil
}
