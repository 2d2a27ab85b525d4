// Package perf turns `go test -bench` output into the repo's
// machine-readable performance trajectory.
//
// The simulator is the substrate every campaign, bisect lattice and
// tournament stands on, so its speed is a tracked artifact like any
// scheduler metric: `make bench-json` parses a benchmark run into a
// Report (BENCH_campaign.json), optionally embeds a reference run for
// before/after deltas, and gates allocs/op against a committed baseline
// (baselines/bench-smoke.json) — allocation counts are deterministic
// enough to gate in CI, where wall-clock ns/op on shared runners is not.
//
// The parsed lines are also retained verbatim (Report.Raw), so
// benchstat can consume the artifact's numbers without re-running:
//
//	jq -r '.raw[]' BENCH_campaign.json > new.txt && benchstat old.txt new.txt
package perf

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -cpu suffix, e.g. "BenchmarkCampaign/workers=1".
	Name string `json:"name"`
	// Iterations is the b.N the reported averages are over.
	Iterations int64 `json:"iterations"`
	// NsPerOp is wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp are present with -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (events/s, scenarios/s,
	// speedup factors, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Delta is one benchmark's change against a reference run, expressed as
// current/reference ratios (0 when the reference value is 0 or absent).
type Delta struct {
	Name string `json:"name"`
	// NsRatio < 1 means faster; AllocRatio < 1 means fewer allocations.
	NsRatio    float64            `json:"ns_ratio,omitempty"`
	AllocRatio float64            `json:"alloc_ratio"`
	Metrics    map[string]float64 `json:"metric_ratios,omitempty"`
}

// Report is the benchmark artifact.
type Report struct {
	// Goos/Goarch/CPU echo the benchmark header lines.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// ModelVersion stamps the scheduler model the numbers were taken on
	// (campaign.ModelVersion at generation time).
	ModelVersion string `json:"model_version,omitempty"`
	// Benchmarks are the parsed results, name-sorted.
	Benchmarks []Benchmark `json:"benchmarks"`
	// Reference, when present, is a prior run of the same benchmarks —
	// the "before" column of a perf change — and Deltas the ratios
	// against it.
	Reference []Benchmark `json:"reference,omitempty"`
	Deltas    []Delta     `json:"deltas,omitempty"`
	// Raw preserves the benchmark result lines benchstat consumes.
	Raw []string `json:"raw,omitempty"`
}

// Parse reads `go test -bench` output (any number of concatenated
// package runs) into name-sorted benchmarks plus the header metadata.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, ok, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
			rep.Raw = append(rep.Raw, strings.Join(strings.Fields(line), " "))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sortBenchmarks(rep.Benchmarks)
	sort.Strings(rep.Raw)
	return rep, nil
}

// stripProcSuffix removes the trailing "-N" GOMAXPROCS suffix Go
// appends to benchmark names when GOMAXPROCS > 1 (benchstat does the
// same): without this, a baseline pinned on a 1-CPU machine would
// silently match nothing on a multi-core runner.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// parseLine parses "BenchmarkX-8  5  12345 ns/op  7 B/op  3 allocs/op
// 42.5 events/s" shaped lines. ok is false for non-result lines.
func parseLine(line string) (Benchmark, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Benchmark{}, false, nil
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, fmt.Errorf("perf: bad iteration count in %q: %v", line, err)
	}
	ns, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return Benchmark{}, false, fmt.Errorf("perf: bad ns/op in %q: %v", line, err)
	}
	b := Benchmark{Name: stripProcSuffix(f[0]), Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("perf: bad value in %q: %v", line, err)
		}
		switch unit := f[i+1]; unit {
		case "B/op":
			b.BytesPerOp = int64(val)
		case "allocs/op":
			b.AllocsPerOp = int64(val)
		default:
			// Custom b.ReportMetric units (events/s, speedups, MB/s, ...).
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, true, nil
}

func sortBenchmarks(bs []Benchmark) {
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
}

// SetReference attaches ref's benchmarks as the report's before column
// and computes the deltas for benchmarks present in both.
func (r *Report) SetReference(ref *Report) {
	r.Reference = ref.Benchmarks
	r.Deltas = nil
	byName := map[string]*Benchmark{}
	for i := range r.Reference {
		byName[r.Reference[i].Name] = &r.Reference[i]
	}
	for i := range r.Benchmarks {
		cur := &r.Benchmarks[i]
		ref, ok := byName[cur.Name]
		if !ok {
			continue
		}
		d := Delta{Name: cur.Name}
		if ref.NsPerOp > 0 {
			d.NsRatio = cur.NsPerOp / ref.NsPerOp
		}
		if ref.AllocsPerOp > 0 {
			d.AllocRatio = float64(cur.AllocsPerOp) / float64(ref.AllocsPerOp)
		}
		for unit, v := range cur.Metrics {
			if rv, ok := ref.Metrics[unit]; ok && rv > 0 {
				if d.Metrics == nil {
					d.Metrics = map[string]float64{}
				}
				d.Metrics[unit] = v / rv
			}
		}
		r.Deltas = append(r.Deltas, d)
	}
	sort.Slice(r.Deltas, func(i, j int) bool { return r.Deltas[i].Name < r.Deltas[j].Name })
}

// AllocRegression is one benchmark whose allocs/op got worse than the
// committed baseline allows.
type AllocRegression struct {
	Name          string
	Base, Current int64
	Pct           float64
}

func (r AllocRegression) String() string {
	return fmt.Sprintf("%-50s allocs/op %8d -> %-8d (%+.1f%%)", r.Name, r.Base, r.Current, r.Pct)
}

// CompareAllocs gates cur's allocs/op against base for every benchmark
// present in both: a regression is an increase beyond tolerancePct.
// Benchmarks only in one report are ignored (adding a benchmark must not
// fail the gate; removing one shows up in review as a baseline edit).
// matched reports how many benchmarks were actually compared — callers
// must treat zero as a broken gate, not a clean one.
func CompareAllocs(base, cur *Report, tolerancePct float64) (regs []AllocRegression, matched int) {
	byName := map[string]*Benchmark{}
	for i := range base.Benchmarks {
		byName[base.Benchmarks[i].Name] = &base.Benchmarks[i]
	}
	for i := range cur.Benchmarks {
		c := &cur.Benchmarks[i]
		b, ok := byName[c.Name]
		if !ok {
			continue
		}
		matched++
		// A zero-alloc baseline tolerates nothing: any allocation on a
		// pinned allocation-free path is a regression.
		if b.AllocsPerOp == 0 {
			if c.AllocsPerOp > 0 {
				regs = append(regs, AllocRegression{Name: c.Name, Base: 0, Current: c.AllocsPerOp, Pct: 100})
			}
			continue
		}
		pct := 100 * float64(c.AllocsPerOp-b.AllocsPerOp) / float64(b.AllocsPerOp)
		if pct > tolerancePct {
			regs = append(regs, AllocRegression{Name: c.Name, Base: b.AllocsPerOp, Current: c.AllocsPerOp, Pct: pct})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	return regs, matched
}

// EncodeJSON renders the report as stable indented JSON with a trailing
// newline.
func (r *Report) EncodeJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile writes the JSON report to path.
func (r *Report) WriteFile(path string) error {
	data, err := r.EncodeJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a report written by WriteFile.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: parsing %s: %w", path, err)
	}
	return &r, nil
}
