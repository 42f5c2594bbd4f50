package plan

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestOrderDrivingClause(t *testing.T) {
	cs := []Clause{
		{Text: "trust >= 0.5", Selectivity: 0.5, Cost: 1},
		{Text: "worker == 12", Selectivity: 0.02, Cost: 1},
		{Text: "tasktype in {1, 2}", Selectivity: 0.2, Cost: 1.6},
	}
	got := Order(cs)
	if !reflect.DeepEqual(got, []int{1, 2, 0}) {
		t.Errorf("Order = %v, want [1 2 0] (most selective drives, rest by sel*cost)", got)
	}
}

func TestOrderCostBreaksRestTies(t *testing.T) {
	// Same selectivity: the cheaper clause runs earlier among the rest,
	// and the cheaper one also wins the driving slot.
	cs := []Clause{
		{Text: "a", Selectivity: 0.3, Cost: 2},
		{Text: "b", Selectivity: 0.3, Cost: 1},
		{Text: "c", Selectivity: 0.3, Cost: 1.5},
	}
	got := Order(cs)
	if !reflect.DeepEqual(got, []int{1, 2, 0}) {
		t.Errorf("Order = %v, want [1 2 0]", got)
	}
}

func TestOrderStableOnTies(t *testing.T) {
	cs := []Clause{
		{Text: "a", Selectivity: 0.4, Cost: 1},
		{Text: "b", Selectivity: 0.4, Cost: 1},
		{Text: "c", Selectivity: 0.4, Cost: 1},
	}
	got := Order(cs)
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("Order = %v, want written order on full tie", got)
	}
}

func TestOrderDegenerate(t *testing.T) {
	if got := Order(nil); len(got) != 0 {
		t.Errorf("Order(nil) = %v", got)
	}
	if got := Order([]Clause{{Text: "a"}}); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Order(one) = %v", got)
	}
}

func TestPlanString(t *testing.T) {
	p := &Plan{
		Query:  "where worker == 12 and trust >= 0.5 | group week | value duration",
		Source: "store",
		Rows:   1000,
		Clauses: []Clause{
			{Text: "worker == 12", Selectivity: 0.02, Cost: 1, Leaves: 1},
			{Text: "trust >= 0.5 or trust < 0.1", Selectivity: 0.6, Cost: 2, Leaves: 2},
		},
		Seg: SegmentSummary{Segments: 3, Pruned: 5, Kernels: map[string]int{"raw": 4, "dict": 2, "for64": 1}},
	}
	s := p.String()
	for _, want := range []string{
		"plan: where worker == 12",
		"1. worker == 12",
		"[driving]",
		"leaves=2",
		"segments: 3 of 8 scanned (5 zone-map-pruned)",
		"kernels: dict=2 for64=1 raw=4",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Plan.String missing %q:\n%s", want, s)
		}
	}
	if s != p.String() {
		t.Error("Plan.String not deterministic")
	}
	if strings.Contains(s, "shards:") {
		t.Error("store plan should not print a shards line")
	}

	p.Shards = SegmentSummary{Segments: 2, Pruned: 1}
	if !strings.Contains(p.String(), "shards: 2 of 3 scanned (1 zone-map-pruned)") {
		t.Errorf("dataset plan missing shards line:\n%s", p.String())
	}
}

func TestPlanStringFullScan(t *testing.T) {
	p := &Plan{Query: "value count", Source: "store", Rows: 10}
	if !strings.Contains(p.String(), "clauses: none (full scan)") {
		t.Errorf("full-scan plan:\n%s", p.String())
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	c.Put("a", 9) // refresh existing
	if v, _ := c.Get("a"); v.(int) != 9 {
		t.Error("Put did not refresh value")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(8)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g+i)%12)
				c.Put(k, i)
				c.Get(k)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c.Len() > 8 {
		t.Errorf("cache exceeded capacity: %d", c.Len())
	}
}
