// Package stats provides the small set of descriptive statistics used by
// the benchmark harness: the paper reports run times "averaged over five
// runs" (Table 2) and speedup factors (Tables 1 and 3).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest value, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Stddev returns the sample standard deviation (n-1 denominator), or 0 when
// fewer than two samples exist.
func Stddev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// Median returns the middle value (average of the two middle values for
// even-length input), or 0 for an empty slice.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0-100) using linear
// interpolation between order statistics, or 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for input already sorted ascending: a
// caller that reads several percentiles of one sample sorts it once.
func PercentileSorted(sorted []float64, p float64) float64 {
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

// Speedup returns before/after — the "Speedup factor (×)" column of the
// paper's Tables 1 and 3. It returns +Inf when after is zero.
func Speedup(before, after float64) float64 {
	if after == 0 {
		return math.Inf(1)
	}
	return before / after
}

// PercentChange returns the relative change from before to after as a
// percentage, negative for improvement — the convention of the paper's
// Table 2 (e.g. "43.5s (−22.2%)").
func PercentChange(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (after - before) / before * 100
}

// FormatSeconds renders a duration in seconds the way the paper's tables
// do: short times keep one decimal, long times are rounded.
func FormatSeconds(s float64) string {
	switch {
	case s < 10:
		return fmt.Sprintf("%.2fs", s)
	case s < 100:
		return fmt.Sprintf("%.1fs", s)
	default:
		return fmt.Sprintf("%.0fs", s)
	}
}
