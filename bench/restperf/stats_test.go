package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// function the benchmark's spread is defined by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2.5, 2.5}, [3]float64{2.5, 2.5, 2.5}},
		{[]float64{3.9, 1.2, 7.7, 4.4, 0.5}, [3]float64{0.85, 3.9, 6.05}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median(nil) = %v, want NaN", m)
	}
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the function must sort
		}
		return xs
	}
	if _, ok := percentile(ramp(99), 0.9); ok {
		t.Error("p90 of 99 samples reported; only 9 lie beyond it")
	}
	v, ok := percentile(ramp(100), 0.9)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(ramp(999), 0.99); ok {
		t.Error("p99 of 999 samples reported")
	}
	if v, ok := percentile(ramp(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples reported")
	}
}
