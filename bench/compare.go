package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// record is one run's result line tagged with what ran, as -record
// appends it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// benchSpec is the part of BENCHMARK.json that -compare and the tests read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runCompare prints one row per (workload, metric) with the medians and
// quartiles of both sides and the change/parent ratio. An end-to-end
// metric worse than the parent's by more than its bound is a regression;
// one whose run-to-run spread (interquartile range over median) is wider
// than the bound is unresolved, unless the change is better in every
// comparison. It returns exitRegression when any row regressed or the
// change failed more passes than the parent.
//
// When both sides ran the same seeds, once each, runs are paired by seed
// (column "by" reads "seed"): the ratio is the median of the per-seed
// ratios and the spread is theirs, so that what a seed changes in the
// work a pass does cancels out. Otherwise (column "by" reads "all") the
// ratio is that of the medians, the spread is the parent's, and the
// change must beat every parent run to be better in every comparison.
func runCompare(w io.Writer, specPath, parentPath, changePath string) (int, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return 0, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return 0, err
	}
	code := 0
	fmt.Fprintf(w, "%-15s %-30s %-34s %-34s %7s %-4s  %s\n", "workload", "metric",
		"parent median [q1 q3]", "change median [q1 q3]", "ratio", "by", "verdict")
	for _, wl := range spec.Workloads {
		pf, pn := failures(parent, wl.Name)
		cf, cn := failures(change, wl.Name)
		if pn == 0 || cn == 0 {
			continue
		}
		verdict := "ok"
		if cf > pf {
			verdict, code = "REGRESSION", exitRegression
		}
		fmt.Fprintf(w, "%-15s %-30s %-34s %-34s %7s %-4s  %s\n", wl.Name, "failed passes",
			fmt.Sprintf("%d of %d", pf, pn), fmt.Sprintf("%d of %d", cf, cn), "", "", verdict)
		for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
			p, c := values(parent, wl.Name, m.Name), values(change, wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			ratios, by := pairBySeed(p, c), "seed"
			if ratios == nil {
				by = "all"
			}
			verdict := "-"
			if m.Bound > 0 {
				verdict = judge(p, c, ratios, m)
				if verdict == "REGRESSION" {
					code = exitRegression
				}
			}
			r := median(vals(c)) / median(vals(p))
			if ratios != nil {
				r = median(ratios)
			}
			fmt.Fprintf(w, "%-15s %-30s %-34s %-34s %7.4f %-4s  %s\n", wl.Name, m.Name+" ("+m.Unit+")",
				spread(vals(p)), spread(vals(c)), r, by, verdict)
		}
	}
	return code, nil
}

// sample is one run's value of a metric.
type sample struct {
	seed  int64
	value float64
}

func vals(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.value
	}
	return out
}

// pairBySeed returns the change/parent ratio at each seed when both sides
// ran the same seeds once each, and nil otherwise.
func pairBySeed(p, c []sample) []float64 {
	if len(p) != len(c) {
		return nil
	}
	parent := map[int64]float64{}
	for _, s := range p {
		parent[s.seed] = s.value
	}
	if len(parent) != len(p) {
		return nil
	}
	var ratios []float64
	for _, s := range c {
		pv, ok := parent[s.seed]
		if !ok {
			return nil
		}
		delete(parent, s.seed)
		ratios = append(ratios, s.value/pv)
	}
	return ratios
}

func failures(rs []record, workload string) (failed, attempted int) {
	for _, r := range rs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

func values(rs []record, workload, metric string) []sample {
	var out []sample
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, sample{r.Seed, v.Value})
		}
	}
	return out
}

// judge applies the metric's bound to the change against the parent,
// paired by seed when ratios is not nil.
func judge(p, c []sample, ratios []float64, m specMetric) string {
	better := func(a, b float64) bool { return a < b }
	if m.Better == "higher" {
		better = func(a, b float64) bool { return a > b }
	}
	// Worsening as a share of the parent, the run-to-run spread, and
	// whether the change is better in every comparison.
	var worse, spread float64
	allBetter := true
	if ratios != nil {
		r := median(ratios)
		q1, q3 := quartiles(ratios)
		worse, spread = r-1, (q3-q1)/r
		for _, x := range ratios {
			allBetter = allBetter && better(x, 1)
		}
	} else {
		pv, cv := vals(p), vals(c)
		pm := median(pv)
		q1, q3 := quartiles(pv)
		worse, spread = (median(cv)-pm)/pm, (q3-q1)/pm
		for _, x := range cv {
			for _, y := range pv {
				allBetter = allBetter && better(x, y)
			}
		}
	}
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread > m.Bound && !allBetter:
		return "unresolved"
	case worse > m.Bound:
		return "REGRESSION"
	}
	return "ok"
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g] n=%d", median(xs), q1, q3, len(xs))
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
