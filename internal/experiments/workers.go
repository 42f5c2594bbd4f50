package experiments

import (
	"fmt"
	"math"
	"strings"

	"crowdscope/internal/model"
	"crowdscope/internal/report"
	"crowdscope/internal/stats"
	"crowdscope/internal/timeseries"
)

func init() {
	register(Experiment{ID: "fig26", Paper: "Figure 26", Title: "Tasks per worker by source; active sources vs load", Run: runFig26})
	register(Experiment{ID: "fig27", Paper: "Figure 27", Title: "Source contributions, trust and relative task times", Run: runFig27})
	register(Experiment{ID: "fig28", Paper: "Figure 28", Title: "Geographical distribution of the workforce", Run: runFig28})
	register(Experiment{ID: "fig29", Paper: "Figure 29", Title: "Workload and time-spent distributions", Run: runFig29})
	register(Experiment{ID: "fig30", Paper: "Figure 30", Title: "Worker lifetimes and working days", Run: runFig30})
	register(Experiment{ID: "tab4", Paper: "Table 4", Title: "The labor sources", Run: runTable4})
}

func runFig26(ctx *Context) *Outcome {
	a := ctx.A
	workers := ctx.Workers()
	sources := a.SourceTable(workers)
	out := &Outcome{}

	// (a) average tasks per worker by source, against the paper's threshold
	// of 20 at every scale: workers and instances both scale linearly with
	// the generation scale, so there is nothing to rescale.
	tsv := report.NewTSV("source_rank", "avg_tasks_per_worker")
	lowEngagement := 0
	for i, s := range sources {
		tsv.Add(float64(i), s.AvgTasksPerWorker)
		if s.AvgTasksPerWorker <= 20 {
			lowEngagement++
		}
	}
	out.addSeries("fig26a", tsv)
	out.check("sources with ≤20 tasks/worker", 0.40, float64(lowEngagement)/float64(len(sources)), "fraction",
		"paper: 40% of sources have workers doing ≤20 tasks each")

	// (b) active sources per week vs task load.
	st := a.DS.Store
	srcOf := make([]uint16, len(a.DS.Workers))
	for i := range a.DS.Workers {
		srcOf[i] = a.DS.Workers[i].Source
	}
	distinct := timeseries.NewWeeklyDistinct()
	starts := st.Starts()
	wcol := st.Workers()
	for i := range starts {
		distinct.Observe(starts[i], uint32(srcOf[wcol[i]]))
	}
	act := distinct.Series()
	arr := weeklyArrivals(ctx)
	tsv2 := report.NewTSV("week", "active_sources", "instances")
	for w := 0; w < act.Len(); w++ {
		tsv2.Add(float64(w), act.At(w), arr.At(w))
	}
	out.addSeries("fig26b", tsv2)

	post := int(model.PostBoomWeek)
	sv := act.Slice(post, act.Len()).NonZero()
	av := arr.Slice(post, arr.Len()).NonZero()
	cvS := stats.StdDev(sv) / stats.Mean(sv)
	cvA := stats.StdDev(av) / stats.Mean(av)
	out.check("active-source CV vs load CV", math.NaN(), cvS/cvA, "ratio",
		"paper: a fixed roster of sources absorbs a varying load (≪1)")

	out.Text = fmt.Sprintf("%d sources observed; %.0f%% engage workers at ≤20 tasks each; weekly active sources CV %.2f vs load CV %.2f.\n",
		len(sources), 100*float64(lowEngagement)/float64(len(sources)), cvS, cvA)
	return out
}

func runFig27(ctx *Context) *Outcome {
	a := ctx.A
	workers := ctx.Workers()
	sources := a.SourceTable(workers)
	out := &Outcome{}

	totTasks, totWorkers := 0, 0
	for _, s := range sources {
		totTasks += s.Tasks
		totWorkers += s.Workers
	}
	top := sources
	if len(top) > 10 {
		top = top[:10]
	}
	tbl := report.NewTable("Top sources", "Source", "Workers", "Tasks", "MeanTrust", "RelTaskTime")
	topTasks, topWorkers := 0, 0
	var amtTrust, amtRel float64
	for _, s := range top {
		tbl.AddRow(s.Name, s.Workers, s.Tasks, s.MeanTrust, s.MeanRelTime)
		topTasks += s.Tasks
		topWorkers += s.Workers
	}
	for _, s := range sources {
		if s.Name == "amt" {
			amtTrust, amtRel = s.MeanTrust, s.MeanRelTime
		}
	}
	out.check("top-10 source task share", 0.95, float64(topTasks)/float64(totTasks), "fraction", "")
	out.check("top-10 source worker share", 0.86, float64(topWorkers)/float64(totWorkers), "fraction", "")
	if amtTrust > 0 {
		out.check("amt mean trust", 0.75, amtTrust, "trust", "paper: MTurk performs poorly on both metrics")
		out.check("amt mean relative task time", 5, amtRel, "x", "paper: >5")
	}

	// Full spread (27c/f).
	lowTrust, slow := 0, 0
	tsv := report.NewTSV("source_rank", "mean_trust", "mean_rel_task_time")
	for i, s := range sources {
		tsv.Add(float64(i), s.MeanTrust, s.MeanRelTime)
		if s.MeanTrust < 0.8 {
			lowTrust++
		}
		if s.MeanRelTime >= 3 {
			slow++
		}
	}
	out.addSeries("fig27", tsv)
	out.check("sources with mean trust <0.8", 0.10, float64(lowTrust)/float64(len(sources)), "fraction", "")
	out.check("sources with relative task time ≥3", 0.05, float64(slow)/float64(len(sources)), "fraction", "")

	out.Text = tbl.String()
	return out
}

func runFig28(ctx *Context) *Outcome {
	a := ctx.A
	workers := ctx.Workers()
	countries := a.CountryTable(workers)
	out := &Outcome{}
	total := 0
	for _, c := range countries {
		total += c.Workers
	}
	chart := report.NewChart("Workers by country (top 15)")
	tsv := report.NewTSV("rank", "workers")
	for i, c := range countries {
		tsv.Add(float64(i), float64(c.Workers))
		if i < 15 {
			chart.Add(c.Name, float64(c.Workers))
		}
	}
	out.addSeries("fig28", tsv)

	top5 := 0
	for i := 0; i < 5 && i < len(countries); i++ {
		top5 += countries[i].Workers
	}
	out.check("top-5 country worker share", 0.50, float64(top5)/float64(total), "fraction",
		"paper: USA, Venezuela, GB, India, Canada ≈ 50%")
	out.check("countries represented", 148, float64(len(countries)), "countries",
		"scaled populations cover fewer tail countries")
	if countries[0].Name == "United States" {
		out.check("USA worker share", 21300.0/69000, float64(countries[0].Workers)/float64(total), "fraction", "")
	}
	out.Text = chart.String()
	return out
}

func runFig29(ctx *Context) *Outcome {
	workers := ctx.Workers()
	out := &Outcome{}

	// (a) rank plot of tasks per worker.
	tsv := report.NewTSV("rank", "tasks")
	loads := make([]float64, len(workers))
	for i, w := range workers {
		tsv.Add(float64(i+1), float64(w.Tasks))
		loads[i] = float64(w.Tasks)
	}
	out.addSeries("fig29a", tsv)
	out.check("top-10% worker task share", 0.80, stats.TopShare(loads, 0.10), "fraction", "paper: >80%")

	// (b) total hours in lifetime; (c) hours per working day — restricted
	// to active workers (>10 working days) as in Section 5.4.
	var hours, daily []float64
	over300h, over1hDay := 0, 0
	for _, w := range workers {
		if !w.Active() {
			continue
		}
		hours = append(hours, w.HoursTotal())
		daily = append(daily, w.HoursPerWorkingDay())
		if w.HoursTotal() > 300 {
			over300h++
		}
		if w.HoursPerWorkingDay() > 1 {
			over1hDay++
		}
	}
	histB := report.NewTSV("hours_total", "count")
	hb := stats.NewHistogram(0, 600, 24)
	hb.AddAll(hours)
	for i, c := range hb.Counts {
		histB.Add(hb.BinCenter(i), float64(c))
	}
	out.addSeries("fig29b", histB)
	histC := report.NewTSV("hours_per_working_day", "count")
	hc := stats.NewHistogram(0, 6, 24)
	hc.AddAll(daily)
	for i, c := range hc.Counts {
		histC.Add(hc.BinCenter(i), float64(c))
	}
	out.addSeries("fig29c", histC)

	if len(daily) > 0 {
		under1 := 0
		for _, d := range daily {
			if d < 1 {
				under1++
			}
		}
		out.check("active workers under 1h/working day", 0.90, float64(under1)/float64(len(daily)), "fraction", "")
	}
	out.check("active workers above 300 lifetime hours", math.NaN(), float64(over300h), "workers",
		"paper: a handful at full scale")

	out.Text = fmt.Sprintf("Workload: top-10%% share %.2f; %d active workers, %d above 1h/day, %d above 300 lifetime hours.\n",
		stats.TopShare(loads, 0.10), len(hours), over1hDay, over300h)
	return out
}

func runFig30(ctx *Context) *Outcome {
	workers := ctx.Workers()
	out := &Outcome{}

	// (a) lifetime histogram over all workers.
	var lifetimes []float64
	oneDay, lt100 := 0, 0
	var oneDayTasks, allTasks int
	for _, w := range workers {
		lifetimes = append(lifetimes, float64(w.Lifetime))
		allTasks += w.Tasks
		if w.Lifetime == 1 {
			oneDay++
			oneDayTasks += w.Tasks
		}
		if w.Lifetime < 100 {
			lt100++
		}
	}
	histA := report.NewTSV("lifetime_days", "count")
	ha := stats.NewHistogram(0, 1500, 30)
	ha.AddAll(lifetimes)
	for i, c := range ha.Counts {
		histA.Add(ha.BinCenter(i), float64(c))
	}
	out.addSeries("fig30a", histA)

	n := float64(len(workers))
	out.check("one-day-lifetime worker share", 0.527, float64(oneDay)/n, "fraction", "")
	out.check("lifetime <100 days share", 0.79, float64(lt100)/n, "fraction", "")
	out.check("one-day workers' task share", 0.024, float64(oneDayTasks)/float64(allTasks), "fraction", "")

	// (b) working days among active workers; (c) fraction of lifetime
	// active.
	var workdays, fractions []float64
	var activeTasks int
	weekly := 0
	for _, w := range workers {
		if !w.Active() {
			continue
		}
		activeTasks += w.Tasks
		workdays = append(workdays, float64(w.WorkingDays))
		frac := float64(w.WorkingDays) / float64(w.Lifetime)
		fractions = append(fractions, frac)
		if frac >= 1.0/7 {
			weekly++
		}
	}
	histB := report.NewTSV("working_days", "count")
	hb := stats.NewHistogram(0, 400, 40)
	hb.AddAll(workdays)
	for i, c := range hb.Counts {
		histB.Add(hb.BinCenter(i), float64(c))
	}
	out.addSeries("fig30b", histB)
	histC := report.NewTSV("active_fraction", "count")
	hc := stats.NewHistogram(0, 1.1, 22)
	hc.AddAll(fractions)
	for i, c := range hc.Counts {
		histC.Add(hc.BinCenter(i), float64(c))
	}
	out.addSeries("fig30c", histC)

	out.check("active workers' task share", 0.83, float64(activeTasks)/float64(allTasks), "fraction",
		"paper: the >10-working-day core completes 83% of tasks")
	if len(fractions) > 0 {
		out.check("active workers working ≥1 day/week of lifetime", 0.43, float64(weekly)/float64(len(fractions)), "fraction", "")
	}

	out.Text = fmt.Sprintf("Lifetimes: %.1f%% one-day, %.1f%% under 100 days; active core (%d workers) performs %.0f%% of tasks.\n",
		100*float64(oneDay)/n, 100*float64(lt100)/n, len(workdays), 100*float64(activeTasks)/float64(allTasks))
	return out
}

func runTable4(ctx *Context) *Outcome {
	a := ctx.A
	out := &Outcome{}
	var b strings.Builder
	fmt.Fprintf(&b, "The marketplace aggregates %d labor sources:\n", len(a.DS.Sources))
	for i, s := range a.DS.Sources {
		if i%8 == 0 {
			b.WriteString("\n  ")
		}
		fmt.Fprintf(&b, "%-18s", s.Name)
	}
	b.WriteString("\n")
	out.check("labor sources", 139, float64(len(a.DS.Sources)), "sources", "")
	out.Text = b.String()
	return out
}
