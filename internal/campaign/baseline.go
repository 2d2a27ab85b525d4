package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/latency"
	"repro/internal/stats"
)

// Regression is one per-scenario metric that got worse than the
// baseline by more than the tolerance.
type Regression struct {
	Key    string
	Metric string
	// Base and Current are the metric values in the two campaigns
	// (seconds for time metrics).
	Base, Current float64
	// Pct is the relative change, positive for worse.
	Pct float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%-40s %-22s %10.4g -> %-10.4g (%+.1f%%)",
		r.Key, r.Metric, r.Base, r.Current, r.Pct)
}

// Comparison is the full diff of a campaign against a baseline.
type Comparison struct {
	// Regressions lists metrics that worsened beyond the tolerance,
	// sorted by (Key, Metric).
	Regressions []Regression
	// Improvements lists metrics that improved beyond the tolerance.
	Improvements []Regression
	// NewlyIncomplete lists scenarios that completed in the baseline
	// but hit the horizon now — always a regression, whatever the
	// makespan says.
	NewlyIncomplete []string
	// MissingKeys are baseline scenarios absent from the current run;
	// NewKeys are current scenarios absent from the baseline. Neither
	// is a regression, but both are reported so a shrunken matrix
	// cannot masquerade as a clean bill.
	MissingKeys, NewKeys []string
	// Compared counts (key, metric) pairs actually diffed.
	Compared int
}

// Clean reports whether the comparison found no regressions.
func (c *Comparison) Clean() bool {
	return len(c.Regressions) == 0 && len(c.NewlyIncomplete) == 0
}

// Compare diffs cur against base scenario by scenario. A metric is a
// regression when it worsens by more than tolerancePct percent.
// Makespan and idle-while-overloaded time regress upward; every Extra
// metric is treated as lower-is-better as well.
func Compare(base, cur *Campaign, tolerancePct float64) *Comparison {
	cmp := &Comparison{}
	baseByKey := map[string]*Result{}
	for i := range base.Results {
		baseByKey[base.Results[i].Key] = &base.Results[i]
	}
	curKeys := map[string]bool{}
	for i := range cur.Results {
		r := &cur.Results[i]
		curKeys[r.Key] = true
		b, ok := baseByKey[r.Key]
		if !ok {
			cmp.NewKeys = append(cmp.NewKeys, r.Key)
			continue
		}
		if b.Completed && !r.Completed {
			cmp.NewlyIncomplete = append(cmp.NewlyIncomplete, r.Key)
			continue
		}
		if !b.Completed {
			continue // baseline itself hit the horizon: nothing to compare
		}
		diff := func(metric string, bv, cv float64) {
			cmp.Compared++
			if bv == 0 && cv == 0 {
				return
			}
			pct := stats.PercentChange(bv, cv)
			if bv == 0 {
				pct = 100 // metric appeared out of nothing
			}
			reg := Regression{Key: r.Key, Metric: metric, Base: bv, Current: cv, Pct: pct}
			switch {
			case pct > tolerancePct:
				cmp.Regressions = append(cmp.Regressions, reg)
			case pct < -tolerancePct:
				cmp.Improvements = append(cmp.Improvements, reg)
			}
		}
		diff("makespan_s", nsToS(b.MakespanNs), nsToS(r.MakespanNs))
		diff("idle_while_overloaded_s", nsToS(b.IdleWhileOverloadedNs), nsToS(r.IdleWhileOverloadedNs))
		// Tail latency is a first-class regression axis. In a
		// model-stamped baseline a nil digest means the scenario
		// genuinely recorded zero wakeup-to-run delays, so it compares
		// as p99=0 and a tail appearing out of nothing is flagged; only
		// pre-stamp baselines (which could not have recorded digests)
		// skip the axis.
		if base.ModelVersion != "" && (b.WakeLatency != nil || r.WakeLatency != nil) {
			diff("p99_wake_ms", p99Ms(b.WakeLatency), p99Ms(r.WakeLatency))
		}
		for metric, bv := range b.Extra {
			if cv, ok := r.Extra[metric]; ok {
				diff("extra:"+metric, bv, cv)
			}
		}
	}
	for key := range baseByKey {
		if !curKeys[key] {
			cmp.MissingKeys = append(cmp.MissingKeys, key)
		}
	}
	sortRegressions(cmp.Regressions)
	sortRegressions(cmp.Improvements)
	sortStrings(cmp.NewlyIncomplete)
	sortStrings(cmp.MissingKeys)
	sortStrings(cmp.NewKeys)
	return cmp
}

func nsToS(ns int64) float64 { return float64(ns) / 1e9 }

// p99Ms reads a digest's p99 in milliseconds, with nil meaning no
// witnessed delay at all — a genuine zero under a model-stamped run.
func p99Ms(d *latency.Digest) float64 {
	if d == nil {
		return 0
	}
	return float64(d.P99Ns) / 1e6
}

func sortRegressions(rs []Regression) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Key != rs[j].Key {
			return rs[i].Key < rs[j].Key
		}
		return rs[i].Metric < rs[j].Metric
	})
}

func sortStrings(ss []string) { sort.Strings(ss) }

// FormatComparison renders the diff as a report.
func FormatComparison(c *Comparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline comparison: %d metrics compared\n", c.Compared)
	if c.Clean() {
		b.WriteString("no regressions\n")
	}
	if len(c.NewlyIncomplete) > 0 {
		fmt.Fprintf(&b, "\nNEWLY INCOMPLETE (%d): hit the horizon, completed in baseline\n", len(c.NewlyIncomplete))
		for _, k := range c.NewlyIncomplete {
			fmt.Fprintf(&b, "  %s\n", k)
		}
	}
	if len(c.Regressions) > 0 {
		fmt.Fprintf(&b, "\nREGRESSIONS (%d):\n", len(c.Regressions))
		for _, r := range c.Regressions {
			fmt.Fprintf(&b, "  %s\n", r)
		}
	}
	if len(c.Improvements) > 0 {
		fmt.Fprintf(&b, "\nimprovements (%d):\n", len(c.Improvements))
		for _, r := range c.Improvements {
			fmt.Fprintf(&b, "  %s\n", r)
		}
	}
	if len(c.MissingKeys) > 0 {
		fmt.Fprintf(&b, "\nscenarios missing vs baseline (%d):\n", len(c.MissingKeys))
		for _, k := range c.MissingKeys {
			fmt.Fprintf(&b, "  %s\n", k)
		}
	}
	if len(c.NewKeys) > 0 {
		fmt.Fprintf(&b, "\nscenarios new vs baseline (%d):\n", len(c.NewKeys))
		for _, k := range c.NewKeys {
			fmt.Fprintf(&b, "  %s\n", k)
		}
	}
	return b.String()
}

// BaselineReport is the -baseline verdict of the sweep CLIs: differs is
// true exactly when cur, the encoded artifact, differs from base, the
// bytes of the baseline file at path. The report says which, and when
// the bytes differ it says why: each stamp field that differs, each
// scenario that is missing, new or whose result changed, Compare's
// metric lines at zero tolerance, then extra (the caller's own lines),
// and where the bytes first differ. baseC and curC are the campaigns
// the two artifacts carry.
func BaselineReport(path string, base, cur []byte, baseC, curC *Campaign, extra string) (report string, differs bool) {
	if bytes.Equal(base, cur) {
		return fmt.Sprintf("baseline: artifact matches %s byte for byte (%d bytes)\n", path, len(cur)), false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "baseline: artifact differs from %s (%d bytes, baseline %d)\n", path, len(cur), len(base))
	for _, d := range baseC.Stamp.Diff(curC.Stamp) {
		fmt.Fprintf(&b, "  stamp %s\n", d)
	}
	key := func(r Result) string { return r.Key }
	DiffKeyed(&b, "scenario", "result", KeyedJSON(baseC.Results, key), KeyedJSON(curC.Results, key))
	cmp := Compare(baseC, curC, 0)
	cmp.MissingKeys, cmp.NewKeys = nil, nil // DiffKeyed listed them
	b.WriteString(FormatComparison(cmp))
	b.WriteString(extra)
	at := 0
	for at < len(base) && at < len(cur) && base[at] == cur[at] {
		at++
	}
	fmt.Fprintf(&b, "bytes first differ at line %d (offset %d)\n", 1+bytes.Count(base[:at], []byte("\n")), at)
	return b.String(), true
}

// KeyedJSON indexes entries by key as canonical JSON for comparison.
func KeyedJSON[T any](entries []T, key func(T) string) map[string]string {
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := json.Marshal(e)
		if err != nil {
			data = []byte(err.Error())
		}
		out[key(e)] = string(data)
	}
	return out
}

// DiffKeyed writes one line per key, in key order, that is missing from
// cur, new in cur, or whose JSON differs ("<kind> <key>: <what>
// changed"). Keys equal on both sides are not listed.
func DiffKeyed(b *strings.Builder, kind, what string, base, cur map[string]string) {
	keys := make([]string, 0, len(base)+len(cur))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range cur {
		if _, ok := base[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		bv, inBase := base[k]
		cv, inCur := cur[k]
		switch {
		case !inCur:
			fmt.Fprintf(b, "  %s %s: missing from this run\n", kind, k)
		case !inBase:
			fmt.Fprintf(b, "  %s %s: new in this run\n", kind, k)
		case bv != cv:
			fmt.Fprintf(b, "  %s %s: %s changed\n", kind, k, what)
		}
	}
}
