package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("Mean wrong")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty Min/Max != 0")
	}
}

func TestStddev(t *testing.T) {
	if Stddev([]float64{5}) != 0 {
		t.Fatal("single sample stddev != 0")
	}
	// Known: sample stddev of {2,4,4,4,5,5,7,9} = 2.138...
	got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.13809) > 1e-4 {
		t.Fatalf("Stddev = %v", got)
	}
}

func TestMedianPercentile(t *testing.T) {
	if !almost(Median([]float64{1, 3, 2}), 2) {
		t.Fatal("odd median")
	}
	if !almost(Median([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("even median")
	}
	xs := []float64{10, 20, 30, 40, 50}
	if !almost(Percentile(xs, 0), 10) || !almost(Percentile(xs, 100), 50) {
		t.Fatal("percentile extremes")
	}
	if !almost(Percentile(xs, 25), 20) {
		t.Fatalf("P25 = %v", Percentile(xs, 25))
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

// TestPercentileEdgeCases pins the behaviours the latency digests rely
// on: a single sample answers every percentile, duplicate-heavy input
// interpolates between equal order statistics without drift, inputs are
// not mutated, and finite input can never produce NaN.
func TestPercentileEdgeCases(t *testing.T) {
	// Single sample: every percentile is that sample.
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := Percentile([]float64{7.5}, p); got != 7.5 {
			t.Errorf("Percentile([7.5], %v) = %v, want 7.5", p, got)
		}
	}
	// Out-of-range p clamps to the extremes.
	xs := []float64{10, 20, 30}
	if Percentile(xs, -5) != 10 || Percentile(xs, 250) != 30 {
		t.Errorf("out-of-range p not clamped: %v / %v", Percentile(xs, -5), Percentile(xs, 250))
	}
	// Duplicate-heavy input: interpolation between equal neighbours
	// stays exactly on the duplicated value.
	dups := []float64{5, 5, 5, 5, 5, 5, 5, 9}
	for _, p := range []float64{10, 50, 80} {
		if got := Percentile(dups, p); got != 5 {
			t.Errorf("duplicate-heavy P%v = %v, want 5", p, got)
		}
	}
	if got := Percentile(dups, 100); got != 9 {
		t.Errorf("duplicate-heavy P100 = %v, want 9", got)
	}
	// The input slice is not reordered (Percentile sorts a copy).
	unsorted := []float64{3, 1, 2}
	Percentile(unsorted, 50)
	if unsorted[0] != 3 || unsorted[1] != 1 || unsorted[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", unsorted)
	}
}

// TestPercentileSortedMatchesPercentile: a caller that sorts once and
// reads several percentiles (the latency digests) must get exactly the
// bits Percentile returns, for empty, tiny, odd and even samples full
// of duplicates and for p inside, on and past both ends of [0, 100].
func TestPercentileSortedMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 10, 101, 1000} {
		for trial := 0; trial < 20; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				// Few distinct values, so duplicates are common.
				xs[i] = float64(rng.Intn(n/3+2)) * 1.5
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, p := range []float64{-1, 0, 50, 95, 99, 100, 101} {
				want, got := Percentile(xs, p), PercentileSorted(sorted, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d p=%v: PercentileSorted = %v, Percentile = %v", n, p, got, want)
				}
			}
		}
	}
}

// TestPropertyPercentileNaNFree: finite inputs never yield NaN or an
// out-of-range result, for any percentile.
func TestPropertyPercentileNaNFree(t *testing.T) {
	f := func(raw []float64, p uint16) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		got := Percentile(xs, float64(p%150)) // includes p > 100
		return !math.IsNaN(got) && got >= Min(xs) && got <= Max(xs)
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
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
