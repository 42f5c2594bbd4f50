// Workerreport: the worker-centric dashboard of Section 5 — where workers
// come from, how source quality varies, how engaged the workforce is, and
// how much of the load the active core shoulders.
package main

import (
	"context"
	"fmt"
	"sort"

	"crowdscope/internal/core"
	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/report"
	"crowdscope/internal/stats"
	"crowdscope/internal/synth"
)

func main() {
	ds := synth.Generate(synth.Config{Seed: 99, Scale: 0.01})
	analysis := core.New(ds, core.DefaultOptions())
	workers := analysis.WorkerTable()

	// Sources.
	sources := analysis.SourceTable(workers)
	tbl := report.NewTable("Labor sources by task volume (top 10)",
		"source", "workers", "tasks", "tasks/worker", "trust", "rel-task-time")
	topTasks, total := 0, 0
	for i, s := range sources {
		total += s.Tasks
		if i < 10 {
			topTasks += s.Tasks
			tbl.AddRow(s.Name, s.Workers, s.Tasks, s.AvgTasksPerWorker, s.MeanTrust, s.MeanRelTime)
		}
	}
	fmt.Print(tbl.String())
	fmt.Printf("top-10 sources carry %.0f%% of tasks (paper: 95%%)\n\n", 100*float64(topTasks)/float64(total))

	// Geography — through the query language's worker-attribute join:
	// one grouped distinct-count over the instance log (the same query
	// crowdquery -q runs) replaces the per-worker rollup.
	tabs := query.NewTables(ds.Workers, ds.Batches)
	q, err := query.ParseQuery("group worker.country | distinct worker")
	if err != nil {
		panic(err)
	}
	q.Tables = tabs
	res, err := query.Exec(context.Background(), query.Source{Store: ds.Store}, q, query.Options{})
	if err != nil {
		panic(err)
	}
	byCountry := append([]query.Group(nil), res.Groups...)
	sort.Slice(byCountry, func(i, j int) bool { return byCountry[i].Distinct > byCountry[j].Distinct })
	chart := report.NewChart("Workforce geography (top 8 countries)")
	top5 := 0
	for i, g := range byCountry {
		if i < 8 {
			chart.Add(ds.Countries[g.Key], float64(g.Distinct))
		}
		if i < 5 {
			top5 += g.Distinct
		}
	}
	fmt.Print(chart.String())
	fmt.Printf("top-5 countries hold %.0f%% of workers (paper: ~50%%)\n\n", 100*float64(top5)/float64(len(workers)))

	// Engagement.
	loads := make([]float64, len(workers))
	oneDay, active, activeTasks, allTasks := 0, 0, 0, 0
	for i, w := range workers {
		loads[i] = float64(w.Tasks)
		allTasks += w.Tasks
		if w.Lifetime == 1 {
			oneDay++
		}
		if w.Active() {
			active++
			activeTasks += w.Tasks
		}
	}
	fmt.Println("Engagement:")
	fmt.Printf("  %d observed workers; %.1f%% active a single day (paper: 52.7%%)\n",
		len(workers), 100*float64(oneDay)/float64(len(workers)))
	fmt.Printf("  active core (>10 working days): %d workers completing %.0f%% of tasks (paper: 83%%)\n",
		active, 100*float64(activeTasks)/float64(allTasks))
	fmt.Printf("  top-10%% of workers perform %.0f%% of tasks; workload Gini %.2f\n",
		100*stats.TopShare(loads, 0.10), stats.Gini(loads))

	// Engagement classes through the language's boolean surface: tasks
	// that ran long (10+ minutes) or came from the visible batch sample,
	// grouped by the joined engagement class.
	q2, err := query.ParseQuery("where batch.sampled == true or duration >= 600 | group worker.class | value trust")
	if err != nil {
		panic(err)
	}
	q2.Tables = tabs
	res2, err := query.Exec(context.Background(), query.Source{Store: ds.Store}, q2, query.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("\nLong or sampled-batch tasks by engagement class:")
	for _, g := range res2.Groups {
		fmt.Printf("  %-8v %7d tasks, mean trust %.2f\n", model.EngagementClass(g.Key), g.Count, g.Mean())
	}

	// Daily hours of the busiest workers.
	fmt.Println("\nHeaviest workers:")
	for i := 0; i < 5 && i < len(workers); i++ {
		w := workers[i]
		fmt.Printf("  #%d: %5d tasks over %3d working days — %5.1f lifetime hours, %.2f h/working day, trust %.2f\n",
			i+1, w.Tasks, w.WorkingDays, w.HoursTotal(), w.HoursPerWorkingDay(), w.MeanTrust)
	}
}
