package main

import (
	"math"
	"sort"
)

// Summary is a sampled metric: its median and quartiles over N samples.
// Quartiles follow Python's statistics.quantiles(data, n=4) (the exclusive
// method), so a spread computed here matches one computed from the same
// samples by any script that uses that function.
type Summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// summarize returns the median and quartiles of xs (which it does not
// modify), keeping the samples for the comparator's every-run-beats-every-
// base-run rule.
func summarize(xs []float64) Summary {
	q := quartiles(xs)
	return Summary{Median: q[1], Q1: q[0], Q3: q[2], N: len(xs), Samples: append([]float64(nil), xs...)}
}

// quartiles is statistics.quantiles(xs, n=4, method="exclusive"): a single
// sample is every quartile, and no samples give NaNs.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// whether it may be reported: a percentile counts only when at least ten
// samples lie beyond it, so p90 needs 100 samples.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if n == 0 || n-rank < 10 {
		return 0, false
	}
	if rank < 1 {
		rank = 1
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d[rank-1], true
}
