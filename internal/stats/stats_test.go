package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianPercentile(t *testing.T) {
	if !almost(PercentileSorted([]float64{1, 2, 3}, 50), 2) {
		t.Fatal("odd median")
	}
	if !almost(PercentileSorted([]float64{1, 2, 3, 4}, 50), 2.5) {
		t.Fatal("even median")
	}
	xs := []float64{10, 20, 30, 40, 50}
	if !almost(PercentileSorted(xs, 0), 10) || !almost(PercentileSorted(xs, 100), 50) {
		t.Fatal("percentile extremes")
	}
	if !almost(PercentileSorted(xs, 25), 20) {
		t.Fatalf("P25 = %v", PercentileSorted(xs, 25))
	}
	if PercentileSorted([]float64(nil), 50) != 0 || PercentileSorted([]int64(nil), 50) != 0 {
		t.Fatal("empty percentile")
	}
}

// TestPercentileEdgeCases pins the behaviours the latency digests rely
// on: a single sample answers every percentile, p outside [0, 100]
// clamps, and duplicate-heavy input interpolates between equal order
// statistics without drift.
func TestPercentileEdgeCases(t *testing.T) {
	// Single sample: every percentile is that sample.
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := PercentileSorted([]float64{7.5}, p); got != 7.5 {
			t.Errorf("PercentileSorted([7.5], %v) = %v, want 7.5", p, got)
		}
	}
	// Out-of-range p clamps to the extremes.
	xs := []float64{10, 20, 30}
	if PercentileSorted(xs, -5) != 10 || PercentileSorted(xs, 250) != 30 {
		t.Errorf("out-of-range p not clamped: %v / %v", PercentileSorted(xs, -5), PercentileSorted(xs, 250))
	}
	// Duplicate-heavy input: interpolation between equal neighbours
	// stays exactly on the duplicated value.
	dups := []float64{5, 5, 5, 5, 5, 5, 5, 9}
	for _, p := range []float64{10, 50, 80} {
		if got := PercentileSorted(dups, p); got != 5 {
			t.Errorf("duplicate-heavy P%v = %v, want 5", p, got)
		}
	}
	if got := PercentileSorted(dups, 100); got != 9 {
		t.Errorf("duplicate-heavy P100 = %v, want 9", got)
	}
}

// TestPercentileSortedMatchesPercentile: an integer sample (the latency
// digests sort int64 nanoseconds) gives exactly the bits of the float64
// percentile of the same sample, for empty, tiny, odd and even samples
// full of duplicates, for values up to 2^53, and for p inside, on and
// past both ends of [0, 100].
func TestPercentileSortedMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 10, 101, 1000} {
		for trial := 0; trial < 20; trial++ {
			ints := make([]int64, n)
			for i := range ints {
				if trial%2 == 0 {
					// Few distinct values, so duplicates are common.
					ints[i] = int64(rng.Intn(n/3+2)) * 1500
				} else {
					ints[i] = rng.Int63n(1 << 53)
				}
			}
			slices.Sort(ints)
			floats := make([]float64, n)
			for i, x := range ints {
				floats[i] = float64(x)
			}
			for _, p := range []float64{-1, 0, 33.3, 50, 95, 99, 100, 101} {
				want, got := PercentileSorted(floats, p), PercentileSorted(ints, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d p=%v: int64 percentile = %v, float64 = %v", n, p, got, want)
				}
			}
		}
	}
}

// finiteSorted drops NaN and infinite values and sorts the rest.
func finiteSorted(raw []float64) []float64 {
	xs := make([]float64, 0, len(raw))
	for _, x := range raw {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			xs = append(xs, x)
		}
	}
	slices.Sort(xs)
	return xs
}

// TestPropertyPercentileNaNFree: finite inputs never yield NaN or an
// out-of-range result, for any percentile.
func TestPropertyPercentileNaNFree(t *testing.T) {
	f := func(raw []float64, p uint16) bool {
		xs := finiteSorted(raw)
		if len(xs) == 0 {
			return true
		}
		got := PercentileSorted(xs, float64(p%150)) // includes p > 100
		return !math.IsNaN(got) && got >= xs[0] && got <= xs[len(xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedup(t *testing.T) {
	if !almost(Speedup(1040, 38), 27.368421052631579) {
		t.Fatal("speedup") // lu's Table 1 row
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("divide by zero speedup should be +Inf")
	}
}

func TestPercentChange(t *testing.T) {
	// Table 2: 55.9s -> 43.3s is -22.5%.
	got := PercentChange(55.9, 43.3)
	if math.Abs(got-(-22.54)) > 0.1 {
		t.Fatalf("PercentChange = %v", got)
	}
	if PercentChange(0, 5) != 0 {
		t.Fatal("zero baseline should yield 0")
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		1.234:  "1.23s",
		55.9:   "55.9s",
		542.91: "543s",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := finiteSorted(raw)
		if len(xs) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return PercentileSorted(xs, pa) <= PercentileSorted(xs, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
