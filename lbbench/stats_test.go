package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The quartiles must agree with Python's statistics.quantiles(xs, n=4),
// the definition the acceptance spreads are computed with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1.5, 2.25, 9, 4}, 1.875, 4, 7},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) || !near(median(c.xs), c.med) {
			t.Errorf("%v: got q1=%v med=%v q3=%v, want %v %v %v", c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
	}
	if q1, q3 := quartiles(nil); q1 != 0 || q3 != 0 || median(nil) != 0 {
		t.Errorf("empty input: got %v %v %v", q1, q3, median(nil))
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize("s", []float64{4, 1, 3, 2})
	if s.N != 4 || s.Unit != "s" || s.Median != 2.5 || s.Q1 != 1.25 || s.Q3 != 3.75 || s.Samples[0] != 4 {
		t.Fatalf("summary %+v", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile is not 0")
	}
}
