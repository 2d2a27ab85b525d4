// Package stats provides the descriptive statistics the tables and
// artifacts report: percentiles of a sorted sample (latency digests,
// metric snapshots, serve tails), the speedup factors of the paper's
// Tables 1 and 3, and the percent changes of its Table 2.
package stats

import (
	"fmt"
	"math"
)

// PercentileSorted returns the p-th percentile (0-100) of a sample
// sorted ascending, interpolating linearly between order statistics; p
// outside [0, 100] clamps to the extremes, and an empty sample gives 0.
// A caller that reads several percentiles of one sample sorts it once.
// Integer samples interpolate in float64 after converting the two order
// statistics, so for values below 2^53, where the conversion is exact
// and monotone, the result equals that of a sorted float64 copy.
func PercentileSorted[T int64 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return float64(sorted[0])
	}
	if p >= 100 {
		return float64(sorted[len(sorted)-1])
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return float64(sorted[lo])
	}
	frac := rank - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
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
