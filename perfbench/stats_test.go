package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.01, 1}, {0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := quantile(slices.Clone(xs), c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]int64(nil), 0.5); got != 0 {
		t.Errorf("quantile(empty) = %d, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile([7], 0.99) = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// The expected values are those of Python's statistics.quantiles(xs,
// n=4), the spread rule results are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolated, as CPython does
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{name: "phase", id: 1, start: 0, end: 100},
		{name: "sum", id: 2, parent: 1, start: 10, end: 20},
		{name: "sum", id: 3, parent: 1, start: 15, end: 30},  // overlaps the first
		{name: "sum", id: 4, parent: 1, start: 90, end: 120}, // clipped at the parent's end
	}
	self := selfTimes(spans)
	if got := self["phase"]; len(got) != 1 || got[0] != 100-20-10 {
		t.Errorf("phase self time = %v, want [70]", got)
	}
	if got := self["sum"]; !slices.Equal(got, []int64{10, 15, 30}) {
		t.Errorf("leaf self times = %v, want their durations", got)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics this
// program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	// read-uniform runs but is not listed: its medians drift with the
	// machine's state by more than the 25% bound between sets of runs.
	if len(doc.Workloads) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d besides read-uniform", len(doc.Workloads), len(workloads)-1)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, have []metric) {
		if len(listed) != len(have) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(have))
		}
		for i := range min(len(listed), len(have)) {
			if listed[i].Name != have[i].name || listed[i].Unit != have[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, have[i].name, have[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
