// Package stats provides the small statistical toolkit the evaluation
// harness needs: summary statistics with confidence intervals (the paper
// reports 5-run means with 95% CIs), percentiles for speculation
// thresholds, and a
// deterministic PRNG wrapper with the skew distributions the workload
// generators use.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// PopStdDev returns the population standard deviation of xs (divides by n,
// not n-1). The paper's Fig 9 reports the spread of utilization across the
// fixed set of cluster nodes, which is a population, not a sample.
func PopStdDev(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}

// tTable holds two-sided 95% critical values of Student's t distribution
// for small degrees of freedom; the harness runs each configuration five
// times, so df=4 is the common case.
var tTable = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
}

// CI95 returns the half-width of the two-sided 95% confidence interval of
// the mean of xs using Student's t distribution. For n <= 1 it returns 0;
// for df beyond the table it uses the normal approximation 1.96.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n <= 1 {
		return 0
	}
	df := n - 1
	t := 1.96
	if df < len(tTable) {
		t = tTable[df]
	}
	return t * StdDev(xs) / math.Sqrt(float64(n))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SortedPercentile(sorted, p)
}

// SortedPercentile is Percentile of a slice already in ascending order,
// read without copying or sorting it. It returns 0 for an empty slice.
func SortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary bundles the statistics the experiment tables report.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs), CI95: CI95(xs)}
	for i, x := range xs {
		if i == 0 || x < s.Min {
			s.Min = x
		}
		if i == 0 || x > s.Max {
			s.Max = x
		}
	}
	return s
}
