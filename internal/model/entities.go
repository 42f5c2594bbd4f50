package model

import (
	"fmt"
	"time"
)

// EngagementClass partitions workers by their marketplace engagement
// pattern; the mix of classes drives the lifetime and workload shapes of
// Section 5 (one-day workers, casual workers, the active core, and the
// near-full-time "super" workers who absorb load spikes).
type EngagementClass uint8

// The engagement classes used by the synthetic worker population.
const (
	ClassOneDay          EngagementClass = iota // active a single day (52.7% of workers)
	ClassCasual                                 // a handful of working days
	ClassActive                                 // >10 working days; the core workforce
	ClassSuper                                  // near-daily; the top of the top-10%
	NumEngagementClasses = int(ClassSuper) + 1
)

var engagementNames = [NumEngagementClasses]string{"one-day", "casual", "active", "super"}

// String names the class.
func (c EngagementClass) String() string {
	if int(c) < NumEngagementClasses {
		return engagementNames[c]
	}
	return "class(?)"
}

// Source is a labor source the marketplace aggregates workers from
// (Table 4 lists 139 of them).
type Source struct {
	ID   uint16
	Name string

	// Dedicated sources host a workforce doing many tasks per worker;
	// on-demand sources supply one-off participation (Section 5.1).
	Dedicated bool

	// TrustMean is the mean trust of tasks done by this source's workers;
	// most sources are above 0.8, a tail is well below (Figure 27c).
	TrustMean float64

	// RelTaskTime is the source's mean task time relative to the per-task
	// median; most sources sit near 1, a 5% tail is >=3 (Figure 27f).
	RelTaskTime float64

	// CountryBias optionally concentrates the source's workers in one
	// country (e.g. imerit_india, yute_jamaica). -1 means no bias.
	CountryBias int16
}

// Worker is a crowd worker recruited through one of the sources.
type Worker struct {
	ID      uint32
	Source  uint16
	Country uint16
	Class   EngagementClass

	// TrustMean is the worker's latent accuracy on test questions; the
	// marketplace surfaces it as a per-instance trust score.
	TrustMean float64

	// Speed scales the worker's task completion time relative to the task
	// median (>1 means slower).
	Speed float64

	// ErrRate is the latent probability the worker answers a question
	// differently from the plurality answer, before task-design modifiers.
	ErrRate float64

	// FirstDay and LastDay bound the worker's lifetime, in days since the
	// dataset epoch.
	FirstDay, LastDay int32
}

// Lifetime returns the worker's lifetime in days (Section 5.3): the number
// of days between first and last activity, with a single-day worker having
// lifetime 1.
func (w Worker) Lifetime() int32 { return w.LastDay - w.FirstDay + 1 }

// TaskType is a distinct task: the identical unit of work issued across
// time and batches (Section 2). Its design parameters are shared by every
// batch carrying it.
type TaskType struct {
	ID uint32
	Labels

	// Design captures the requester-controlled parameters studied in
	// Section 4.
	Design DesignParams

	// Ambiguity is the latent probability that two workers disagree on an
	// item of this task before design modifiers; it drives the
	// disagreement metric.
	Ambiguity float64

	// BaseTaskSecs is the latent median seconds a worker needs per task
	// instance before design and worker modifiers.
	BaseTaskSecs float64

	// BasePickupSecs is the latent median pickup delay for the task's
	// batches before design modifiers.
	BasePickupSecs float64

	// HeavyHitter marks the handful of task types issued across >=100
	// batches (Section 3.3).
	HeavyHitter bool

	// Labeled marks task types included in the manually labeled subset
	// (~83% of batches, Section 3.4).
	Labeled bool

	// FirstWeek and LastWeek bound the weeks in which batches of this task
	// may be issued, expressing the "rapid ramp then shutdown" arrival
	// pattern of heavy hitters (Figure 8).
	FirstWeek, LastWeek int32
}

// DesignParams are the task interface features extracted from batch HTML in
// Section 4: requesters control them, and they correlate with the three
// effectiveness metrics.
type DesignParams struct {
	Words     int // #words in the HTML page
	TextBoxes int // #text-box input fields
	Items     int // #items operated on per batch (median)
	Examples  int // #prominently tagged examples
	Images    int // #image tags
	Fields    int // total input fields (a null-effect feature)
}

// Batch is one parallel issue of tasks of a single task type.
type Batch struct {
	ID       uint32
	TaskType uint32

	// CreatedAt is the batch creation time.
	CreatedAt time.Time

	// Items is the number of distinct items in the batch.
	Items int32

	// Redundancy is the number of worker answers solicited per item.
	Redundancy int16

	// Sampled marks batches in the fully visible 12k-batch sample; the
	// rest expose only title and creation date (Section 2.2).
	Sampled bool

	// Title is the short textual description provided with the metadata.
	Title string
}

// Instances returns the number of task instances the batch generates.
func (b Batch) Instances() int { return int(b.Items) * int(b.Redundancy) }

// Instance is a single task instance: one worker's unit of work on one item.
// It mirrors the per-instance metadata the marketplace provided
// (Section 2.3): worker attributes, item attributes, timing and trust.
type Instance struct {
	Batch    uint32
	TaskType uint32
	Item     uint32
	Worker   uint32

	// Start and End are unix seconds for the instance's work interval.
	Start, End int64

	// Trust is the marketplace trust score attributed to this instance.
	Trust float32

	// Answer is a dictionary-encoded worker response token; equal tokens
	// mean exactly matching answers (the paper's disagreement definition
	// uses exact matching).
	Answer uint32
}

// Epoch is the dataset's reference time: all day/week indexes count from
// this instant. The paper's data spans July 2012 to July 2016.
var Epoch = time.Date(2012, time.July, 2, 0, 0, 0, 0, time.UTC) // a Monday

// epochUnix is Epoch in unix seconds, computed once: the bucket functions
// below run once per row in scans.
var epochUnix = Epoch.Unix()

// Horizon is the end of the observed span.
var Horizon = time.Date(2016, time.July, 31, 0, 0, 0, 0, time.UTC)

// NumDays is the number of days in the observed span.
var NumDays = int(Horizon.Sub(Epoch).Hours() / 24)

// NumWeeks is the number of whole weeks in the observed span.
var NumWeeks = (NumDays + 6) / 7

// DayIndex converts a time to days since the epoch.
func DayIndex(t time.Time) int32 { return int32(t.Sub(Epoch) / (24 * time.Hour)) }

// WeekIndex converts a time to weeks since the epoch.
func WeekIndex(t time.Time) int32 { return DayIndex(t) / 7 }

// DayUnix converts a day index to the unix second at which the day starts.
func DayUnix(day int32) int64 { return epochUnix + int64(day)*86400 }

// WeekTime converts a week index back to the Monday starting that week.
func WeekTime(week int32) time.Time { return Epoch.AddDate(0, 0, int(week)*7) }

// WeekOfUnix converts unix seconds to a week index; pre-epoch times map to
// -1 (floor semantics, not Go's truncation toward zero).
func WeekOfUnix(sec int64) int32 {
	delta := sec - epochUnix
	if delta < 0 {
		return -1
	}
	return int32(delta / (7 * 86400))
}

// DayOfUnix converts unix seconds to a day index; pre-epoch times map to -1.
func DayOfUnix(sec int64) int32 {
	delta := sec - epochUnix
	if delta < 0 {
		return -1
	}
	return int32(delta / 86400)
}

// Weekday returns the weekday of a day index (the epoch is a Monday).
func Weekday(day int32) time.Weekday {
	// time.Monday == 1; day 0 is a Monday.
	return time.Weekday((int(day)+1)%7 + 0)
}

// PostBoomWeek is the week index of January 2015, when marketplace load
// took off; several of the paper's figures restrict to this period.
var PostBoomWeek = WeekIndex(time.Date(2015, time.January, 1, 0, 0, 0, 0, time.UTC))

// FormatWeek renders a week index like the paper's axis labels ("Jan'15").
func FormatWeek(week int32) string {
	t := WeekTime(week)
	return fmt.Sprintf("%s'%02d", t.Format("Jan"), t.Year()%100)
}
