// Package model defines the domain types shared by every crowdscope
// subsystem: task goals, operators and data types, batches, task instances,
// workers and labor sources. The vocabulary follows Section 2 of Jain et
// al. (VLDB 2017): a *task* is the unit of work done by a single worker, a
// *batch* is a set of parallel tasks issued together, and identical units of
// work issued across batches form a *distinct task* (recovered by
// clustering).
package model

import "strings"

// Goal is the end goal of a task (Section 3.4, "Task Goal").
type Goal uint8

// The seven task goals observed in the paper, plus catch-alls.
const (
	GoalER Goal = iota // Entity Resolution
	GoalHB             // Human Behavior (surveys, psychology, demographics)
	GoalSR             // Search Relevance Estimation
	GoalQA             // Quality Assurance (spam, moderation, cleaning)
	GoalSA             // Sentiment Analysis
	GoalLU             // Language Understanding (parsing, NLP)
	GoalT              // Transcription (captions, structured extraction)
	GoalOther
	NumGoals = int(GoalOther) + 1
)

var goalNames = [NumGoals]string{"ER", "HB", "SR", "QA", "SA", "LU", "T", "Other"}

var goalLongNames = [NumGoals]string{
	"Entity Resolution", "Human Behavior", "Search Relevance",
	"Quality Assurance", "Sentiment Analysis", "Language Understanding",
	"Transcription", "Other",
}

// String returns the paper's abbreviation for the goal.
func (g Goal) String() string {
	if int(g) < NumGoals {
		return goalNames[g]
	}
	return "Goal(?)"
}

// LongName returns the spelled-out goal name.
func (g Goal) LongName() string {
	if int(g) < NumGoals {
		return goalLongNames[g]
	}
	return "Unknown"
}

// Simple reports whether the goal is in the paper's "simple" class for the
// Section 3.5 trend analysis: {entity resolution, sentiment analysis,
// quality assurance}.
func (g Goal) Simple() bool {
	return g == GoalER || g == GoalSA || g == GoalQA
}

// Operator is the human data-processing building block a task uses
// (Section 3.4, "Task Operator").
type Operator uint8

// The ten operators observed in the paper, plus a catch-all.
const (
	OpFilter   Operator = iota // separate items into classes / boolean questions
	OpRate                     // rate on an ordinal scale
	OpSort                     // order items
	OpCount                    // count occurrences
	OpTag                      // label or tag
	OpGather                   // provide information not present in the data
	OpExtract                  // convert implicit information into another form
	OpGenerate                 // produce new content using worker judgement
	OpLocalize                 // mark or bound segments of the data
	OpExternal                 // visit an external page and act there
	OpOther
	NumOperators = int(OpOther) + 1
)

var operatorNames = [NumOperators]string{
	"Filt", "Rate", "Sort", "Count", "Tag", "Gat", "Ext", "Gen", "Loc", "Exter", "Other",
}

var operatorLongNames = [NumOperators]string{
	"Filter", "Rate", "Sort", "Count", "Label/Tag", "Gather", "Extract",
	"Generate", "Localize", "External Link", "Other",
}

// String returns the paper's abbreviation for the operator.
func (o Operator) String() string {
	if int(o) < NumOperators {
		return operatorNames[o]
	}
	return "Op(?)"
}

// LongName returns the spelled-out operator name.
func (o Operator) LongName() string {
	if int(o) < NumOperators {
		return operatorLongNames[o]
	}
	return "Unknown"
}

// Simple reports whether the operator is in the paper's "simple" class:
// {filter, rate}.
func (o Operator) Simple() bool { return o == OpFilter || o == OpRate }

// DataType is the kind of data a task's interface presents
// (Section 3.4, "Data Type").
type DataType uint8

// The seven data types observed in the paper.
const (
	DataText DataType = iota
	DataImage
	DataAudio
	DataVideo
	DataMaps
	DataSocial
	DataWeb
	DataOther
	NumDataTypes = int(DataOther) + 1
)

var dataTypeNames = [NumDataTypes]string{
	"Text", "Image", "Audio", "Video", "Map", "Social", "Web", "Other",
}

// String returns the data type name as used in the paper's figures.
func (d DataType) String() string {
	if int(d) < NumDataTypes {
		return dataTypeNames[d]
	}
	return "Data(?)"
}

// Simple reports whether the data type is in the paper's "simple" class:
// only text.
func (d DataType) Simple() bool { return d == DataText }

// GoalSet, OpSet and DataSet are small bitmask sets: tasks may carry one or
// more labels under each category (Section 3.4).
type (
	GoalSet uint16
	OpSet   uint16
	DataSet uint16
)

// Has reports membership.
func (s GoalSet) Has(g Goal) bool { return s&(1<<g) != 0 }

// With returns the set with g added.
func (s GoalSet) With(g Goal) GoalSet { return s | 1<<g }

// Len returns the number of goals in the set.
func (s GoalSet) Len() int { return popcount16(uint16(s)) }

// Each calls fn for every goal in the set, in declaration order.
func (s GoalSet) Each(fn func(Goal)) {
	for i := 0; i < NumGoals; i++ {
		if s.Has(Goal(i)) {
			fn(Goal(i))
		}
	}
}

// Slice returns the goals in the set in declaration order.
func (s GoalSet) Slice() []Goal {
	out := make([]Goal, 0, s.Len())
	s.Each(func(g Goal) { out = append(out, g) })
	return out
}

// String renders the set as "ER|SA".
func (s GoalSet) String() string {
	return joinSet(s.Len(), func(b *strings.Builder) { s.Each(func(g Goal) { sep(b); b.WriteString(g.String()) }) })
}

// Has reports membership.
func (s OpSet) Has(o Operator) bool { return s&(1<<o) != 0 }

// With returns the set with o added.
func (s OpSet) With(o Operator) OpSet { return s | 1<<o }

// Len returns the number of operators in the set.
func (s OpSet) Len() int { return popcount16(uint16(s)) }

// Each calls fn for every operator in the set, in declaration order.
func (s OpSet) Each(fn func(Operator)) {
	for i := 0; i < NumOperators; i++ {
		if s.Has(Operator(i)) {
			fn(Operator(i))
		}
	}
}

// Slice returns the operators in the set in declaration order.
func (s OpSet) Slice() []Operator {
	out := make([]Operator, 0, s.Len())
	s.Each(func(o Operator) { out = append(out, o) })
	return out
}

// String renders the set as "Filt|Ext".
func (s OpSet) String() string {
	return joinSet(s.Len(), func(b *strings.Builder) { s.Each(func(o Operator) { sep(b); b.WriteString(o.String()) }) })
}

// Has reports membership.
func (s DataSet) Has(d DataType) bool { return s&(1<<d) != 0 }

// With returns the set with d added.
func (s DataSet) With(d DataType) DataSet { return s | 1<<d }

// Len returns the number of data types in the set.
func (s DataSet) Len() int { return popcount16(uint16(s)) }

// Each calls fn for every data type in the set, in declaration order.
func (s DataSet) Each(fn func(DataType)) {
	for i := 0; i < NumDataTypes; i++ {
		if s.Has(DataType(i)) {
			fn(DataType(i))
		}
	}
}

// Slice returns the data types in the set in declaration order.
func (s DataSet) Slice() []DataType {
	out := make([]DataType, 0, s.Len())
	s.Each(func(d DataType) { out = append(out, d) })
	return out
}

// String renders the set as "Text|Image".
func (s DataSet) String() string {
	return joinSet(s.Len(), func(b *strings.Builder) { s.Each(func(d DataType) { sep(b); b.WriteString(d.String()) }) })
}

// Labels bundles the three label categories assigned to a distinct task.
type Labels struct {
	Goals     GoalSet
	Operators OpSet
	Data      DataSet
}

// SimpleGoal reports whether the goal labels are exclusively from the
// paper's simple class {ER, SA, QA} (Section 3.5). A cluster with any
// complex goal counts as complex.
func (l Labels) SimpleGoal() bool {
	if l.Goals.Len() == 0 {
		return false
	}
	simple := true
	l.Goals.Each(func(g Goal) {
		if !g.Simple() {
			simple = false
		}
	})
	return simple
}

// SimpleOperator reports whether the operator labels are exclusively from
// the simple class {filter, rate}.
func (l Labels) SimpleOperator() bool {
	if l.Operators.Len() == 0 {
		return false
	}
	simple := true
	l.Operators.Each(func(o Operator) {
		if !o.Simple() {
			simple = false
		}
	})
	return simple
}

// SimpleData reports whether the data labels are exclusively text.
func (l Labels) SimpleData() bool {
	if l.Data.Len() == 0 {
		return false
	}
	simple := true
	l.Data.Each(func(d DataType) {
		if !d.Simple() {
			simple = false
		}
	})
	return simple
}

func popcount16(v uint16) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func joinSet(n int, fill func(*strings.Builder)) string {
	if n == 0 {
		return "∅"
	}
	var b strings.Builder
	fill(&b)
	return b.String()
}

func sep(b *strings.Builder) {
	if b.Len() > 0 {
		b.WriteByte('|')
	}
}
