// Package stats provides the small statistical toolkit the experiment
// harnesses use for multi-seed reporting: summary statistics (mean, std,
// min/max, percentiles) and normal-approximation confidence intervals.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N        int
	Mean     float64
	Std      float64 // sample standard deviation (n−1)
	Min, Max float64
	Median   float64
	P10, P90 float64
	StdErr   float64 // Std/√n
	CI95Lo   float64 // mean ± 1.96·stderr
	CI95Hi   float64
}

// Summarize computes summary statistics of xs. Panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
		s.StdErr = s.Std / math.Sqrt(float64(s.N))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Percentile(sorted, 0.5)
	s.P10 = Percentile(sorted, 0.1)
	s.P90 = Percentile(sorted, 0.9)
	s.CI95Lo = s.Mean - 1.96*s.StdErr
	s.CI95Hi = s.Mean + 1.96*s.StdErr
	return s
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending-sorted
// sample by linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// String renders "mean ± std [min, max]".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g] (n=%d)", s.Mean, s.Std, s.Min, s.Max, s.N)
}
