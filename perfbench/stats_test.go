package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("p50 of {1,2,3} = %v, want 2", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median, the rule the benchmark's spreads are judged by.
	for _, c := range []struct {
		xs         []float64
		q1, q3, md float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 7.625, 2.75},
		{[]float64{5, 1}, 0, 6, 3},
		{[]float64{10, 20, 30}, 10, 30, 20},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 9, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if md := median(c.xs); md != c.md {
			t.Errorf("median(%v) = %v, want %v", c.xs, md, c.md)
		}
	}
}
