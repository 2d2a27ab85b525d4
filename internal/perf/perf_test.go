package perf

import (
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCampaign/workers=1  	       3	 321463963 ns/op	    581167 events/s	        93.32 scenarios/s	122343346 B/op	 1825462 allocs/op
BenchmarkEngineSteadyState 	  217190	     11230 ns/op	    4800 B/op	     100 allocs/op
PASS
ok  	repro	2.678s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.CPU == "" {
		t.Fatalf("header not parsed: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	c := rep.Benchmarks[0] // name-sorted: Campaign first
	if c.Name != "BenchmarkCampaign/workers=1" || c.Iterations != 3 {
		t.Fatalf("campaign bench = %+v", c)
	}
	if c.AllocsPerOp != 1825462 || c.BytesPerOp != 122343346 {
		t.Fatalf("benchmem fields = %+v", c)
	}
	if c.Metrics["events/s"] != 581167 || c.Metrics["scenarios/s"] != 93.32 {
		t.Fatalf("custom metrics = %+v", c.Metrics)
	}
	if len(rep.Raw) != 2 {
		t.Fatalf("raw lines = %d, want 2", len(rep.Raw))
	}
}

func TestSetReferenceDeltas(t *testing.T) {
	before, _ := Parse(strings.NewReader(sample))
	afterText := strings.NewReplacer(
		"321463963", "160000000",
		"581167", "1162334",
		"1825462", "110186",
		"     100 allocs/op", "       0 allocs/op",
		"    4800 B/op", "       0 B/op",
	).Replace(sample)
	after, err := Parse(strings.NewReader(afterText))
	if err != nil {
		t.Fatal(err)
	}
	after.SetReference(before)
	if len(after.Deltas) != 2 {
		t.Fatalf("deltas = %+v", after.Deltas)
	}
	d := after.Deltas[0]
	if d.Name != "BenchmarkCampaign/workers=1" {
		t.Fatalf("delta order: %+v", after.Deltas)
	}
	if r := d.Metrics["events/s"]; r < 1.99 || r > 2.01 {
		t.Fatalf("events/s ratio = %v, want ~2.0", r)
	}
	if d.AllocRatio > 0.07 {
		t.Fatalf("alloc ratio = %v, want < 0.07 (>14x cut)", d.AllocRatio)
	}
}

func TestCompareAllocs(t *testing.T) {
	base, _ := Parse(strings.NewReader(
		"BenchmarkA 1 10 ns/op 0 B/op 0 allocs/op\nBenchmarkB 1 10 ns/op 800 B/op 100 allocs/op\n" +
			"BenchmarkC 1 10 ns/op 1000 B/op 10 allocs/op\n"))
	// The current run carries a -4 GOMAXPROCS suffix (multi-core CI
	// runner); the pin still matches because Parse strips it.
	cur, _ := Parse(strings.NewReader(
		"BenchmarkA-4 1 10 ns/op 8 B/op 1 allocs/op\nBenchmarkB-4 1 10 ns/op 880 B/op 109 allocs/op\n" +
			"BenchmarkC-4 1 10 ns/op 1200 B/op 10 allocs/op\nBenchmarkNew-4 1 10 ns/op 99 B/op 99 allocs/op\n"))
	gated := func(regs []AllocRegression) []string {
		var out []string
		for _, r := range regs {
			out = append(out, r.Name+" "+r.Metric)
		}
		return out
	}
	regs, matched := CompareAllocs(base, cur, 10)
	// A: 0 -> 1 allocs and 0 -> 8 B regress (zero baselines tolerate
	// nothing); B: +9% allocs and +10% B are inside the 10% tolerance;
	// C: flat allocs but +20% B regresses on bytes alone; New: not
	// pinned, ignored.
	if matched != 3 {
		t.Fatalf("matched = %d, want 3 (the -N suffix must not break pin matching)", matched)
	}
	if got, want := strings.Join(gated(regs), ", "), "BenchmarkA allocs/op, BenchmarkA B/op, BenchmarkC B/op"; got != want {
		t.Fatalf("regressions = %s, want %s", got, want)
	}
	for _, r := range regs {
		if !strings.Contains(r.String(), " "+r.Metric+" ") {
			t.Fatalf("regression line does not name its metric: %q", r)
		}
	}
	regs, _ = CompareAllocs(base, cur, 5)
	if got, want := strings.Join(gated(regs), ", "),
		"BenchmarkA allocs/op, BenchmarkA B/op, BenchmarkB allocs/op, BenchmarkB B/op, BenchmarkC B/op"; got != want {
		t.Fatalf("at 5%% tolerance regressions = %s, want %s", got, want)
	}
	// A zero baseline fails at any tolerance.
	regs, _ = CompareAllocs(base, cur, 1000)
	if got, want := strings.Join(gated(regs), ", "), "BenchmarkA allocs/op, BenchmarkA B/op"; got != want {
		t.Fatalf("at 1000%% tolerance regressions = %s, want %s", got, want)
	}
	// Disjoint reports compare nothing — the caller must treat that as
	// a broken gate.
	other, _ := Parse(strings.NewReader("BenchmarkZ 1 10 ns/op 1 B/op 1 allocs/op\n"))
	if _, matched := CompareAllocs(base, other, 10); matched != 0 {
		t.Fatalf("disjoint reports matched %d", matched)
	}
}

func TestStripProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkEngineSteadyState-4":   "BenchmarkEngineSteadyState",
		"BenchmarkCampaign/workers=1-16": "BenchmarkCampaign/workers=1",
		"BenchmarkCampaign/workers=1":    "BenchmarkCampaign/workers=1",
		"BenchmarkFoo-bar":               "BenchmarkFoo-bar",
		"BenchmarkTrailingDash-":         "BenchmarkTrailingDash-",
	}
	for in, want := range cases {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestParseRejectsUngateableValues: a value the allocation gate cannot
// judge (or JSON cannot encode) fails the parse with the offending line
// quoted, while a negative custom metric (an improvement percentage)
// stays legal.
func TestParseRejectsUngateableValues(t *testing.T) {
	for _, tc := range []struct {
		line, want string // want "" = accepted
	}{
		{"BenchmarkX 5 10 ns/op NaN B/op -3 allocs/op", "bad value"},
		{"BenchmarkX 5 10 ns/op 1000 B/op -3 allocs/op", "bad allocs/op"},
		{"BenchmarkX 5 NaN ns/op", "bad ns/op"},
		{"BenchmarkX 5 +Inf ns/op", "bad ns/op"},
		{"BenchmarkX 5 -1 ns/op", "bad ns/op"},
		{"BenchmarkX 0 10 ns/op", "bad iteration count"},
		{"BenchmarkX -2 10 ns/op", "bad iteration count"},
		{"BenchmarkX 5 10 ns/op 1.5 B/op", "bad B/op"},
		{"BenchmarkX 5 10 ns/op 1e19 B/op", "bad B/op"},
		{"BenchmarkX 5 10 ns/op 9.223372036854775807e18 allocs/op", "bad allocs/op"},
		{"BenchmarkX 5 10 ns/op -Inf speedup", "bad value"},
		{"BenchmarkX 5 10 ns/op -4.5 x_improvement_pct 8 B/op 1 allocs/op", ""},
	} {
		_, err := Parse(strings.NewReader(tc.line + "\n"))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: %v, want accepted", tc.line, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), "perf: "+tc.want+" in ")):
			t.Errorf("%q: error %v, want %q", tc.line, err, tc.want)
		}
	}
}

// FuzzParse: Parse never panics, and every report it accepts encodes,
// with non-empty names and finite, non-negative gated values.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("BenchmarkX 5 10 ns/op NaN B/op -3 allocs/op\n")
	f.Add("BenchmarkX-4 1 0.5 ns/op 0 B/op 0 allocs/op -12.5 x_improvement_pct\n")
	f.Fuzz(func(t *testing.T, in string) {
		rep, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		if _, err := rep.EncodeJSON(); err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		for _, b := range rep.Benchmarks {
			if b.Name == "" || b.Iterations < 1 || b.BytesPerOp < 0 || b.AllocsPerOp < 0 ||
				!(b.NsPerOp >= 0) || math.IsInf(b.NsPerOp, 0) {
				t.Fatalf("accepted ungateable benchmark %+v", b)
			}
			for unit, v := range b.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite %s = %v", unit, v)
				}
			}
		}
	})
}
