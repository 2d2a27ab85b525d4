// Package campaign is the scenario-campaign runner: the execution layer
// that turns the paper's one-off experiments into systematic sweeps.
//
// The paper's central lesson is that scheduler bugs hide in specific
// corners of a large configuration space — a particular topology (nodes
// two hops apart, §3.2), a particular workload mix (a database pool plus
// sub-millisecond kernel noise, §3.3), a particular tunable (autogroups
// on or off, §3.1) — and its authors had to build extra tooling to hunt
// them across many runs. This package makes that hunt a first-class
// operation:
//
//   - a Matrix declares the cross-product of topologies, workloads,
//     scheduler configurations (bug-fix toggles, power policy, modular
//     placement policies) and seeds to explore;
//   - Run executes every scenario of the matrix on a pool of workers.
//     Each scenario gets its own sim.Engine (the engine itself is
//     single-threaded by design) seeded deterministically from
//     (base seed, scenario key), so the aggregate artifact is
//     byte-identical regardless of worker count or completion order;
//   - every run is watched by the §4.1 sanity checker, and its
//     wasted-core metrics (confirmed invariant violations, time spent
//     idle-while-overloaded) are collected next to makespan and
//     scheduler counters into a Result;
//   - the sorted results form a Campaign artifact with a stable JSON
//     encoding, and Compare diffs two artifacts to report per-scenario
//     regressions in makespan or idle-while-overloaded time.
//
// The experiments package reuses the same worker pool (ForEach) so the
// paper's tables run their independent machine builds in parallel too.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"

	"repro/internal/explain"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Version identifies the artifact schema; bump on incompatible change
// only. Additive fields (the per-class episode breakdown, the
// checker-lens stamp, and the latency digests/streak witnesses) do not
// bump it: older artifacts still parse, and consumers needing the new
// fields diagnose their absence themselves (see bisect.Analyze).
const Version = 1

// ModelVersion identifies the scheduler model and metric pipeline that
// produced an artifact. Bump it whenever a code change alters what any
// scenario would record (scheduler behaviour, workload synthesis,
// checker or latency instrumentation, new Result fields): the stamp is
// part of the incremental-execution fingerprint, so a bump makes
// cached prior results stale instead of silently splicing numbers from
// an older model — the "same-binary assumption" the shard package
// cannot otherwise verify.
const ModelVersion = "5-fork"

// Result is one scenario's collected metrics. All fields are derived
// from virtual time and deterministic counters — never wall-clock — so
// that artifacts are reproducible byte for byte.
type Result struct {
	// Key is the scenario's unique identity, "topology/workload/config/sN".
	Key string `json:"key"`
	// Topology, Workload, Config and Seed echo the scenario coordinates.
	Topology string `json:"topology"`
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Seed     int64  `json:"seed"`
	// EngineSeed is the seed actually fed to sim.New, derived from
	// (campaign base seed, Key, Seed).
	EngineSeed int64 `json:"engine_seed"`

	// MakespanNs is the workload's completion time in virtual
	// nanoseconds (or the horizon when it did not complete).
	MakespanNs int64 `json:"makespan_ns"`
	// Completed is false when the run hit the horizon.
	Completed bool `json:"completed"`
	// Events is the number of simulation events processed.
	Events uint64 `json:"events"`

	// Counters snapshots the scheduler's activity counters.
	Counters sched.Counters `json:"counters"`

	// Checker metrics (§4.1): invariant evaluations, candidate
	// violations, transients that resolved within the monitoring window,
	// and confirmed violations.
	CheckerChecks     uint64 `json:"checker_checks"`
	CheckerCandidates uint64 `json:"checker_candidates"`
	CheckerTransients uint64 `json:"checker_transients"`
	Violations        int    `json:"violations"`
	// IdleWhileOverloadedNs sums the confirmed violation windows
	// (DetectedAt..ConfirmedAt): virtual time during which a core
	// provably sat idle while another was overloaded.
	IdleWhileOverloadedNs int64 `json:"idle_while_overloaded_ns"`
	// EpisodeClasses counts confirmed violations per bug signature
	// (checker.Classify); absent when the run is clean. Map keys encode
	// sorted, so the artifact stays byte-stable.
	EpisodeClasses map[string]int `json:"episode_classes,omitempty"`
	// IdleNsByClass splits IdleWhileOverloadedNs by bug signature.
	IdleNsByClass map[string]int64 `json:"idle_ns_by_class,omitempty"`

	// TraceEvents counts trace-recorder events captured around confirmed
	// violations (zero unless RunnerOpts.Trace).
	TraceEvents int `json:"trace_events"`
	// TraceDropped counts trace events lost to the recorder's capacity
	// limit — a capture-completeness warning that was previously silent.
	// Omitted when zero so pre-existing artifacts keep their bytes.
	TraceDropped uint64 `json:"trace_dropped,omitempty"`

	// Metrics is the scenario's virtual-time metrics snapshot
	// (internal/obs): series summaries sampled on the campaign's metrics
	// cadence plus hook-driven histograms. Nil unless
	// RunnerOpts.Metrics; deterministic when present, so artifacts
	// carrying it stay byte-identical across worker counts and shard
	// merges.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`

	// WakeLatency digests the scenario's wakeup-to-run delays and
	// RunqWait every runqueue-wait span (internal/latency; nil when the
	// scenario recorded no samples). Both are deterministic functions of
	// the scenario, so artifacts carrying them stay byte-identical
	// across worker counts, shard merges and incremental re-runs.
	WakeLatency *latency.Digest `json:"wake_latency,omitempty"`
	RunqWait    *latency.Digest `json:"runq_wait,omitempty"`
	// WakeStreaks witnesses wakeup-placement streaks (K consecutive
	// wakeups on busy cores while an allowed core idled) — the
	// episode-level overload-on-wakeup signal for runs whose episodes
	// are too short for checker confirmation. Nil when no streak
	// reached the campaign's threshold (Campaign.StreakK).
	WakeStreaks *latency.Streaks `json:"wake_streaks,omitempty"`

	// Extra holds workload-specific metrics (e.g. TPC-H Q18 seconds,
	// global-queue overhead fractions). JSON object keys are sorted, so
	// the encoding stays stable.
	Extra map[string]float64 `json:"extra,omitempty"`

	// Explain is the scenario's causal-explanation report: decision
	// record totals plus per-episode counterfactual replays (which
	// single fix erases each confirmed episode, and what it saves). Nil
	// unless RunnerOpts.Explain; deterministic when present.
	Explain *explain.ScenarioExplain `json:"explain,omitempty"`
}

// Stamp is an artifact's run identity: every campaign-wide setting its
// results depend on. Two artifacts whose stamps differ are not results
// of one run, so shard merges, incremental plans and the -baseline
// report all check stamps through Diff. A new run setting that changes
// what scenarios record is one field here plus one line in
// RunnerOpts.Stamp; fields are omitted from the JSON when zero where
// that keeps older artifacts' bytes.
type Stamp struct {
	// ModelVersion stamps the scheduler-model/metric revision that ran
	// the scenarios (see the ModelVersion constant). Merge requires all
	// shards to agree, and incremental re-runs treat a mismatch (or an
	// old artifact without the stamp) as a full invalidation. Omitted
	// when empty so pre-stamp artifacts keep their bytes.
	ModelVersion string `json:"model_version,omitempty"`
	BaseSeed     int64  `json:"base_seed"`
	// ScaleMilli is the workload scale in thousandths (an integer so the
	// artifact never depends on float formatting of user input).
	// ScaleMilli and HorizonNs are stamped only when uniform across the
	// scenarios (see Unscaled).
	ScaleMilli int64 `json:"scale_milli"`
	// HorizonNs is the per-scenario virtual-time bound.
	HorizonNs int64 `json:"horizon_ns"`
	// CheckerSNs / CheckerMNs record the sanity-checker lens every
	// scenario ran under (check interval and monitoring window, after
	// campaign defaulting). Consumers that reason over episode counts —
	// the bisect lattice walk — read the lens from the artifact rather
	// than trusting their caller, so re-analyzing a loaded or merged
	// artifact cannot mislabel it.
	CheckerSNs int64 `json:"checker_s_ns"`
	CheckerMNs int64 `json:"checker_m_ns"`
	// Trace records whether the trace recorder was attached (it changes
	// the per-result TraceEvents counts).
	Trace bool `json:"trace,omitempty"`
	// StreakK records the wakeup-streak threshold every scenario ran
	// under (after campaign defaulting); per-result WakeStreaks counts
	// are only meaningful against it.
	StreakK int `json:"streak_k,omitempty"`
	// Metrics records whether the obs metrics registry was attached
	// (it adds per-result Metrics snapshots and its sampling timer
	// changes Events counts), and MetricsCadenceNs the resolved
	// sampling interval (zero when metrics are off).
	Metrics          bool  `json:"metrics,omitempty"`
	MetricsCadenceNs int64 `json:"metrics_cadence_ns,omitempty"`
	// Explain records whether the causal-observability layer was attached
	// (it adds per-result Explain reports and its episode forking changes
	// Events counts on scenarios with streak episodes).
	Explain bool `json:"explain,omitempty"`
}

// Diff names each field in which o differs from s by its JSON key, with
// both values ("base_seed 42 -> 7"), in field order; nil when the
// stamps are equal.
func (s Stamp) Diff(o Stamp) []string {
	if s == o {
		return nil
	}
	a, b := reflect.ValueOf(s), reflect.ValueOf(o)
	var out []string
	for i := 0; i < a.NumField(); i++ {
		if av, bv := a.Field(i).Interface(), b.Field(i).Interface(); av != bv {
			name, _, _ := strings.Cut(a.Type().Field(i).Tag.Get("json"), ",")
			out = append(out, fmt.Sprintf("%s %#v -> %#v", name, av, bv))
		}
	}
	return out
}

// Unscaled is s with ScaleMilli and HorizonNs zeroed: the part of the
// stamp every shard of one run, and every reusable prior, must share.
// Scale and horizon are stamped only when uniform across an artifact's
// scenarios, so they follow their own rules: a non-uniform shard merge
// zeroes them, and an incremental plan checks them per result.
func (s Stamp) Unscaled() Stamp {
	s.ScaleMilli, s.HorizonNs = 0, 0
	return s
}

// Campaign is the aggregate artifact of one matrix run.
type Campaign struct {
	Version int `json:"version"`
	Stamp
	// Policies stamps the (name -> version) of every registered policy
	// the artifact's scenarios ran under. Shard merges require
	// overlapping names to agree (same name at different versions means
	// the shards were built against different policy registries), and
	// the incremental fingerprint compares each cached result's stamped
	// version against the current registry — per scenario, so
	// registering a *new* policy never invalidates unrelated cached
	// cells. Ad-hoc version-0 specs are not stamped; omitted when empty
	// so pre-existing artifacts keep their bytes.
	Policies map[string]int `json:"policies,omitempty"`
	// Results are sorted by Key — insertion order (and therefore worker
	// scheduling) cannot leak into the artifact.
	Results []Result `json:"results"`
}

// Normalize re-establishes the artifact's key-sorted-results invariant
// after external surgery (the shard package's merge), erroring on
// duplicate keys.
func (c *Campaign) Normalize() error { return c.sortResults() }

// sortResults orders results by Key and asserts uniqueness.
func (c *Campaign) sortResults() error {
	sort.Slice(c.Results, func(i, j int) bool { return c.Results[i].Key < c.Results[j].Key })
	for i := 1; i < len(c.Results); i++ {
		if c.Results[i].Key == c.Results[i-1].Key {
			return fmt.Errorf("campaign: duplicate scenario key %q", c.Results[i].Key)
		}
	}
	return nil
}

// Result returns the result with the given key, or nil.
func (c *Campaign) Result(key string) *Result {
	for i := range c.Results {
		if c.Results[i].Key == key {
			return &c.Results[i]
		}
	}
	return nil
}

// EncodeJSON renders the artifact as stable, indented JSON with a
// trailing newline. Identical campaigns encode to identical bytes.
func (c *Campaign) EncodeJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile writes the JSON artifact to path.
func (c *Campaign) WriteFile(path string) error {
	data, err := c.EncodeJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// FormatSummary renders the campaign as a human-readable table: one row
// per scenario with its headline wasted-core metrics.
func (c *Campaign) FormatSummary() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "campaign: %d scenarios (base seed %d, scale %.3g)\n\n",
		len(c.Results), c.BaseSeed, float64(c.ScaleMilli)/1000)
	fmt.Fprintf(&b, "%-44s %12s %10s %6s %12s %10s %7s\n",
		"scenario", "makespan", "events", "viol", "idle-ovl", "p99-wake", "streaks")
	for _, r := range c.Results {
		makespan := sim.Time(r.MakespanNs).String()
		if !r.Completed {
			makespan = ">" + sim.Time(r.MakespanNs).String()
		}
		p99 := "-"
		if r.WakeLatency != nil {
			p99 = sim.Time(r.WakeLatency.P99Ns).String()
		}
		streaks := 0
		if r.WakeStreaks != nil {
			streaks = r.WakeStreaks.Streaks
		}
		fmt.Fprintf(&b, "%-44s %12s %10d %6d %12s %10s %7d\n",
			r.Key, makespan, r.Events, r.Violations, sim.Time(r.IdleWhileOverloadedNs), p99, streaks)
	}
	return b.String()
}

// Load reads a campaign artifact written by WriteFile.
func Load(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return c, nil
}

// Decode parses a campaign artifact from its JSON bytes — the same
// validation Load applies, for artifacts already in memory rather than
// in a file (the sweep benchmark decodes its cached artifacts this way).
func Decode(data []byte) (*Campaign, error) {
	var c Campaign
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("parsing artifact: %w", err)
	}
	if c.Version != Version {
		return nil, fmt.Errorf("artifact version %d, want %d", c.Version, Version)
	}
	return &c, nil
}
