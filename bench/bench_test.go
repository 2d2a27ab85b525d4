package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// reducedBaselines names the committed baseline each reduced input's
// output must equal at refSeed.
var reducedBaselines = map[string]string{
	"sweep-full":     "campaign-default.json",
	"bisect-default": "bisect-smoke.json",
	"artifact-cycle": "campaign-smoke.json",
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func smokeRun(t *testing.T, w workload, trace bool) (result, string) {
	t.Helper()
	res, digest, err := run(w, runConfig{seed: refSeed, seconds: time.Millisecond, trace: trace, reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
	}
	return res, digest
}

// checkNames asserts the emitted metrics are exactly the declared ones,
// with the declared units and well-formed names.
func checkNames(t *testing.T, got map[string]metric, declared []specMetric) {
	t.Helper()
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, m := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is malformed", name)
		}
		if unit, ok := want[name]; !ok {
			t.Errorf("metric %q is not declared in BENCHMARK.json", name)
		} else if unit != m.Unit {
			t.Errorf("metric %q has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("declared metric %q is not emitted", name)
		}
	}
}

// TestWorkloads makes one smoke-sized run of each workload, untraced and
// traced twice, and checks names, outputs and determinism.
func TestWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		w := workloads[i]
		if sw.Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, sw.Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			plain, digest := smokeRun(t, w, false)
			checkNames(t, plain.Metrics, spec.EndToEnd)
			for name, m := range plain.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if base, ok := reducedBaselines[w.name]; ok {
				if want := fileDigest(t, filepath.Join("..", "baselines", base)); digest != want {
					t.Errorf("output sha256 %s, want baselines/%s's %s", digest, base, want)
				}
			}

			traced1, digest1 := smokeRun(t, w, true)
			traced2, digest2 := smokeRun(t, w, true)
			checkNames(t, traced1.Metrics, spec.PerLayer)
			if digest1 != digest || digest2 != digest {
				t.Errorf("traced output sha256 %s and %s, untraced %s", digest1, digest2, digest)
			}
			for name, m := range traced1.Metrics {
				if m.Unit == "count" && name != "trace.passes" && traced2.Metrics[name] != m {
					t.Errorf("count %s differs between runs: %v vs %v", name, m.Value, traced2.Metrics[name].Value)
				}
			}
			var self float64
			for name, m := range traced1.Metrics {
				if strings.HasSuffix(name, ".self_s") || name == "runtime.gc_s" {
					self += m.Value
				}
			}
			if total := traced1.Metrics["profile.cpu_s"].Value; self < 0.95*total || self > 1.05*total {
				t.Errorf("layer self times sum to %vs, profiled CPU %vs", self, total)
			}
		})
	}
}

// TestRefs checks that every workload has a committed reference digest,
// and that bisect-default's is the digest of the committed baseline.
func TestRefs(t *testing.T) {
	for _, w := range workloads {
		ref := refDigest(w.name)
		if len(ref) != 64 {
			t.Errorf("ref/%s.sha256 holds %q, want a hex sha256", w.name, ref)
		}
	}
	if got, want := refDigest("bisect-default"), fileDigest(t, "../baselines/bisect-default.json"); got != want {
		t.Errorf("ref/bisect-default.sha256 is %s, baselines/bisect-default.json hashes to %s", got, want)
	}
}

// spin is harness code for the profile to find.
func spin(d time.Duration) {
	var sum [32]byte
	for end := time.Now().Add(d); time.Now().Before(end); {
		sum = sha256.Sum256(sum[:])
	}
}

// TestProfileAttribution decodes a CPU profile captured here and checks
// that its samples land in the right layers and add up.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(200 * time.Millisecond)
	m := campaign.DefaultMatrix()
	m.Scale = 0.25
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		if _, err := campaign.Run(m, campaign.RunnerOpts{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples)
	if len(samples) == 0 || a.total <= 0 {
		t.Fatalf("%d samples, %v CPU", len(samples), a.total)
	}
	known := map[string]bool{"harness": true, "runtime": true}
	for _, p := range packages {
		known[p] = true
	}
	var sum time.Duration
	for layer, d := range a.self {
		if !known[layer] {
			t.Errorf("layer %q is not in packages", layer)
		}
		sum += d
	}
	if sum != a.total {
		t.Errorf("self times sum to %v, profile total %v", sum, a.total)
	}
	if a.self["harness"] < 50*time.Millisecond {
		t.Errorf("harness self %v after 200ms of spin", a.self["harness"])
	}
	if a.self["sched"]+a.self["sim"]+a.self["machine"] == 0 {
		t.Errorf("no samples in sched, sim or machine: %v", a.self)
	}
	if a.explainIncl != 0 {
		t.Errorf("explain inclusive %v without explain on", a.explainIncl)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sched.(*Scheduler).tick":        "sched",
		"repro/internal/campaign.ForEachCtx[...].func1": "campaign",
		"main.run":                             "harness",
		"repro/bench.spin":                     "harness",
		"runtime.gcBgMarkWorker":               "",
		"encoding/json.(*encodeState).marshal": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestHostClock checks that the kernel is measured again only after
// calEvery, and that an interval scales inversely with the mean of the
// kernel times around it.
func TestHostClock(t *testing.T) {
	var hc hostClock
	hc.tick()
	hc.tick()
	if len(hc.kernels) != 1 || hc.kernels[0] <= 0 {
		t.Fatalf("after two ticks within calEvery: kernels %v", hc.kernels)
	}
	iv := hc.interval(3 * time.Second)
	hc.calibrate()
	hc.kernels[0], hc.kernels[1] = refKernel, 3*refKernel
	if got := hc.scale([]interval{iv}); got[0] != 1500*time.Millisecond {
		t.Errorf("3s between kernel times of 1 and 3 references scales to %v, want 1.5s", got[0])
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],
		"end_to_end":[{"name":"rate","unit":"1/s","better":"higher","bound":0.1}],
		"per_layer":[{"name":"x.self_s","unit":"s","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// write records one run per rate, at seed 0, or with bySeed at seeds
	// 1, 2, ...
	write := func(name string, bySeed bool, rates ...float64) string {
		path := filepath.Join(dir, name)
		for i, r := range rates {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"rate": {r, "1/s"}}}
			rec := record{Workload: "w", result: res}
			if bySeed {
				rec.Seed = int64(i + 1)
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent", false, 100, 101, 99, 100, 102)
	seeded := write("seeded", true, 60, 80, 100, 120, 140)
	for _, c := range []struct {
		name    string
		parent  string
		bySeed  bool
		change  []float64
		code    int
		verdict string
	}{
		{"same", parent, false, []float64{99, 100, 101, 100, 100}, 0, "ok"},
		{"slower", parent, false, []float64{80, 81, 79, 80, 82}, exitRegression, "REGRESSION"},
		{"noisy", write("noisy", false, 60, 100, 140, 80, 120), false, []float64{85, 86, 84, 85, 86}, 0, "unresolved"},
		// The seeds spread the parent past the bound; paired by seed, the
		// ratios do not.
		{"seeded-unpaired", seeded, false, []float64{59, 79, 99, 119, 139}, 0, "unresolved"},
		{"seeded-same", seeded, true, []float64{59, 79, 99, 119, 139}, 0, "ok"},
		{"seeded-slower", seeded, true, []float64{48, 64, 80, 96, 112}, exitRegression, "REGRESSION"},
	} {
		var out bytes.Buffer
		code, err := runCompare(&out, spec, c.parent, write(c.name, c.bySeed, c.change...))
		if err != nil {
			t.Fatal(err)
		}
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "rate (1/s)") {
				row = line
			}
		}
		if code != c.code || !strings.HasSuffix(row, " "+c.verdict) {
			t.Errorf("%s: exit %d, want %d and a rate row ending %q:\n%s", c.name, code, c.code, c.verdict, out.String())
		}
	}
}
