package bisect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// Version identifies the bisect artifact schema; bump on incompatible
// change.
const Version = 1

// ClassVerdict is the per-episode-class answer of one cell: which
// minimal fix sets eliminate every confirmed episode of this class.
type ClassVerdict struct {
	// Class is the bug signature (checker.Classify).
	Class string `json:"class"`
	// BaselineEpisodes / BaselineIdleNs are the class's footprint under
	// the studied kernel (fx-none).
	BaselineEpisodes int   `json:"baseline_episodes"`
	BaselineIdleNs   int64 `json:"baseline_idle_ns"`
	// MinimalFixSets are the minimal lattice elements with zero episodes
	// of this class, in short-name form ("gc", "gi+oow").
	MinimalFixSets []string `json:"minimal_fix_sets,omitempty"`
	// Unresolved is set when no fix set at all zeroes the class.
	Unresolved bool `json:"unresolved,omitempty"`
}

// Interaction is one non-monotone lattice edge: adding a single fix to a
// set re-introduced idle-while-overloaded time beyond one monitoring
// window — the shape of the ROADMAP min-load anomaly.
type Interaction struct {
	// Base and Combined name the two lattice points; Added is the fix
	// whose addition hurt.
	Base     string `json:"base"`
	Added    string `json:"added"`
	Combined string `json:"combined"`
	// BaseIdleNs / CombinedIdleNs are the idle-while-overloaded times of
	// the two points.
	BaseIdleNs     int64 `json:"base_idle_ns"`
	CombinedIdleNs int64 `json:"combined_idle_ns"`
	// Classes are the episode classes present at the combined point.
	Classes map[string]int `json:"classes,omitempty"`
}

// Cell is the verdict for one (topology, workload, seed) coordinate.
type Cell struct {
	Topology string `json:"topology"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`

	// Baseline metrics under the studied kernel (fx-none).
	BaselineViolations int            `json:"baseline_violations"`
	BaselineIdleNs     int64          `json:"baseline_idle_while_overloaded_ns"`
	BaselineClasses    map[string]int `json:"baseline_classes,omitempty"`

	// MinimalFixSets are the minimal lattice elements that zero every
	// baseline episode class at once. Empty when the baseline is clean
	// (nothing to fix) or Unresolved is set.
	MinimalFixSets []string `json:"minimal_fix_sets,omitempty"`
	// Unresolved: the baseline has violations but no fix set zeroes all
	// its classes.
	Unresolved bool `json:"unresolved,omitempty"`
	// ResidualIdleNs records, for each minimal fix set, idle time from
	// episode classes outside the baseline's (startup transients, or
	// classes a fix introduced); zero entries are omitted.
	ResidualIdleNs map[string]int64 `json:"residual_idle_ns,omitempty"`

	// ClassVerdicts answer "which fix removes this episode class",
	// sorted by class name.
	ClassVerdicts []ClassVerdict `json:"class_verdicts,omitempty"`
	// Interactions lists non-monotone edges, sorted by (Base, Added).
	Interactions []Interaction `json:"interactions,omitempty"`

	// Performance verdict: the best-makespan lattice point and the
	// minimal sets within the tolerance of it. Empty when no lattice
	// point completed within the horizon.
	PerfBestSet        string   `json:"perf_best_set,omitempty"`
	PerfBestMakespanNs int64    `json:"perf_best_makespan_ns,omitempty"`
	PerfMinimalFixSets []string `json:"perf_minimal_fix_sets,omitempty"`

	// Wakeup-streak verdict — the episode-level overload-on-wakeup
	// witness. When the studied kernel shows wakeup-placement streaks
	// (K consecutive wakeups on busy cores with an allowed core idle;
	// see internal/latency), the minimal fix sets that zero them name
	// the pathology directly, even for cells like TPC-H whose episodes
	// are too short for checker confirmation and that previously got
	// only a makespan-basis attribution.
	BaselineStreaks       int      `json:"baseline_streaks,omitempty"`
	BaselineLongestStreak int      `json:"baseline_longest_streak,omitempty"`
	StreakMinimalFixSets  []string `json:"streak_minimal_fix_sets,omitempty"`
	// StreakUnresolved: the baseline has streaks but no fix set zeroes
	// them.
	StreakUnresolved bool `json:"streak_unresolved,omitempty"`

	// Latency verdict: the lattice point with the best p99
	// wakeup-to-run delay and the minimal sets within the latency
	// tolerance of it — the tail-latency analogue of the makespan
	// verdict. LatencyBestSet is empty when no lattice point completed
	// or the artifact carries no digests (pre-latency artifact).
	LatencyBestSet        string   `json:"latency_best_set,omitempty"`
	LatencyBestP99Ns      int64    `json:"latency_best_p99_ns,omitempty"`
	LatencyMinimalFixSets []string `json:"latency_minimal_fix_sets,omitempty"`

	// ExplainCheck cross-checks the baseline's per-episode counterfactual
	// attributions against the lattice verdicts above. Nil unless the
	// campaign ran with explain on and the baseline reported episodes.
	ExplainCheck *ExplainCheck `json:"explain_check,omitempty"`
}

// ExplainCheck compares causal (per-episode counterfactual replay)
// attribution with statistical (lattice walk) attribution for one cell.
// The two are independent computations — replays re-simulate forked
// worlds, the lattice walk compares whole-run episode counts — so their
// agreement is genuine cross-validation, not restatement.
type ExplainCheck struct {
	// Episodes / StreakEpisodes count the baseline's replayed episodes
	// (by kind); Attributed counts those where at least one single fix
	// erased the episode.
	Episodes       int `json:"episodes"`
	StreakEpisodes int `json:"streak_episodes,omitempty"`
	Attributed     int `json:"attributed"`
	// CheckerFixes / StreakFixes are the unions of per-episode erasing
	// fixes, by episode kind, in canonical lattice order.
	CheckerFixes []string `json:"checker_fixes,omitempty"`
	StreakFixes  []string `json:"streak_fixes,omitempty"`
	// AgreesWithMinimal reports whether the causal attributions cover the
	// lattice verdicts: some minimal fix set is contained in the checker
	// episodes' eraser union (when the cell has one), and likewise some
	// streak-minimal set in the streak episodes' (when the cell has one).
	AgreesWithMinimal bool `json:"agrees_with_minimal"`
}

// Key renders the cell coordinate, mirroring campaign scenario keys
// minus the config dimension.
func (c *Cell) Key() string {
	return fmt.Sprintf("%s/%s/s%d", c.Topology, c.Workload, c.Seed)
}

// Report is the aggregate bisect artifact.
type Report struct {
	Version    int   `json:"version"`
	BaseSeed   int64 `json:"base_seed"`
	ScaleMilli int64 `json:"scale_milli"`
	HorizonNs  int64 `json:"horizon_ns"`
	// CheckerSNs / CheckerMNs record the sanity-checker lens the sweep
	// used; verdicts are only comparable across equal lenses.
	CheckerSNs       int64   `json:"checker_s_ns"`
	CheckerMNs       int64   `json:"checker_m_ns"`
	PerfTolerancePct float64 `json:"perf_tolerance_pct"`
	// LatencyTolerancePct / LatencySlackNs tune the latency verdict;
	// StreakK echoes the wakeup-streak threshold the campaign ran under
	// (0 for pre-latency artifacts, whose streak/latency verdicts are
	// absent).
	LatencyTolerancePct float64 `json:"latency_tolerance_pct,omitempty"`
	LatencySlackNs      int64   `json:"latency_slack_ns,omitempty"`
	StreakK             int     `json:"streak_k,omitempty"`
	// Cells are sorted by (Topology, Workload, Seed).
	Cells []Cell `json:"cells"`
	// Campaign embeds the full per-scenario artifact the verdicts were
	// derived from, so campaign.Compare works on bisect baselines.
	Campaign *campaign.Campaign `json:"campaign"`
}

// Cell returns the cell with the given coordinates, or nil.
func (r *Report) Cell(topology, workload string, seed int64) *Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Topology == topology && c.Workload == workload && c.Seed == seed {
			return c
		}
	}
	return nil
}

// Analyze walks the lattice of an already-run campaign. The campaign
// must contain, for every (topology, workload, seed) cell, all 16
// lattice configurations (extra non-lattice configs are ignored). The
// checker lens is read from the artifact itself — never from the
// options, which Analyze does not read — so re-analyzing a loaded or
// shard-merged artifact cannot mislabel the report or apply the wrong
// interaction threshold. Analysis is a pure function of the artifact,
// and reproduces the report byte for byte.
func Analyze(c *campaign.Campaign, _ Options) (*Report, error) {
	if c.CheckerSNs == 0 || c.CheckerMNs == 0 {
		return nil, fmt.Errorf("bisect: campaign artifact records no checker lens")
	}
	type cellKey struct {
		topo, load string
		seed       int64
	}
	cells := map[cellKey]*[NumSets]*campaign.Result{}
	var order []cellKey
	for i := range c.Results {
		res := &c.Results[i]
		f, ok := ParseConfigName(res.Config)
		if !ok {
			continue
		}
		k := cellKey{res.Topology, res.Workload, res.Seed}
		lat := cells[k]
		if lat == nil {
			lat = new([NumSets]*campaign.Result)
			cells[k] = lat
			order = append(order, k)
		}
		if lat[f] != nil {
			return nil, fmt.Errorf("bisect: duplicate lattice result %s (merged shards overlap?)", res.Key)
		}
		lat[f] = res
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("bisect: campaign contains no lattice (fx-*) results")
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.topo != b.topo {
			return a.topo < b.topo
		}
		if a.load != b.load {
			return a.load < b.load
		}
		return a.seed < b.seed
	})

	r := &Report{
		Version:             Version,
		BaseSeed:            c.BaseSeed,
		ScaleMilli:          c.ScaleMilli,
		HorizonNs:           c.HorizonNs,
		CheckerSNs:          c.CheckerSNs,
		CheckerMNs:          c.CheckerMNs,
		PerfTolerancePct:    PerfTolerancePct,
		LatencyTolerancePct: LatencyTolerancePct,
		LatencySlackNs:      int64(LatencySlack),
		StreakK:             c.StreakK,
		Campaign:            c,
	}
	for _, k := range order {
		lat := cells[k]
		for f := range lat {
			if lat[f] == nil {
				return nil, fmt.Errorf("bisect: cell %s/%s/s%d is missing lattice config %s",
					k.topo, k.load, k.seed, FixSet(f).ConfigName())
			}
		}
		cell := analyzeCell(k.topo, k.load, k.seed, lat, c.CheckerMNs)
		r.Cells = append(r.Cells, cell)
	}
	return r, nil
}

// analyzeCell runs the memoized lattice walks for one cell. windowNs is
// the artifact's monitoring window, used as the interaction threshold.
func analyzeCell(topo, load string, seed int64, lat *[NumSets]*campaign.Result, windowNs int64) Cell {
	base := lat[0]
	cell := Cell{
		Topology:           topo,
		Workload:           load,
		Seed:               seed,
		BaselineViolations: base.Violations,
		BaselineIdleNs:     base.IdleWhileOverloadedNs,
	}
	if len(base.EpisodeClasses) > 0 {
		cell.BaselineClasses = base.EpisodeClasses
	}

	// Episode verdict: clean(f) zeroes every baseline class.
	baseClasses := sortedKeys(base.EpisodeClasses)
	if len(baseClasses) > 0 {
		clean := func(f FixSet) bool {
			for _, cl := range baseClasses {
				if lat[f].EpisodeClasses[cl] > 0 {
					return false
				}
			}
			return true
		}
		minimal := minimalSets(clean)
		cell.Unresolved = len(minimal) == 0
		for _, f := range minimal {
			cell.MinimalFixSets = append(cell.MinimalFixSets, f.String())
			residual := int64(0)
			for cl, ns := range lat[f].IdleNsByClass {
				if base.EpisodeClasses[cl] == 0 {
					residual += ns
				}
			}
			if residual > 0 {
				if cell.ResidualIdleNs == nil {
					cell.ResidualIdleNs = map[string]int64{}
				}
				cell.ResidualIdleNs[f.String()] = residual
			}
		}

		// Per-class verdicts.
		for _, cl := range baseClasses {
			cv := ClassVerdict{
				Class:            cl,
				BaselineEpisodes: base.EpisodeClasses[cl],
				BaselineIdleNs:   base.IdleNsByClass[cl],
			}
			minimal := minimalSets(func(f FixSet) bool { return lat[f].EpisodeClasses[cl] == 0 })
			cv.Unresolved = len(minimal) == 0
			for _, f := range minimal {
				cv.MinimalFixSets = append(cv.MinimalFixSets, f.String())
			}
			cell.ClassVerdicts = append(cell.ClassVerdicts, cv)
		}
	}

	// Non-monotone edges: adding one fix re-introduces more than one
	// monitoring window of idle-while-overloaded time.
	threshold := windowNs
	for _, f := range All() {
		for _, bit := range Singles() {
			if f.Has(bit) {
				continue
			}
			g := f | bit
			if lat[g].IdleWhileOverloadedNs > lat[f].IdleWhileOverloadedNs+threshold {
				cell.Interactions = append(cell.Interactions, Interaction{
					Base:           f.String(),
					Added:          bit.String(),
					Combined:       g.String(),
					BaseIdleNs:     lat[f].IdleWhileOverloadedNs,
					CombinedIdleNs: lat[g].IdleWhileOverloadedNs,
					Classes:        lat[g].EpisodeClasses,
				})
			}
		}
	}
	sort.Slice(cell.Interactions, func(i, j int) bool {
		a, b := cell.Interactions[i], cell.Interactions[j]
		if a.Base != b.Base {
			return a.Base < b.Base
		}
		return a.Added < b.Added
	})

	// Performance verdict over completed runs.
	best := FixSet(0)
	bestNs := int64(-1)
	for _, f := range All() {
		if !lat[f].Completed {
			continue
		}
		if bestNs < 0 || lat[f].MakespanNs < bestNs {
			best, bestNs = f, lat[f].MakespanNs
		}
	}
	if bestNs >= 0 {
		cell.PerfBestSet = best.String()
		cell.PerfBestMakespanNs = bestNs
		limit := float64(bestNs) * (1 + PerfTolerancePct/100)
		qualifies := func(f FixSet) bool {
			return lat[f].Completed && float64(lat[f].MakespanNs) <= limit
		}
		for _, f := range minimalSets(qualifies) {
			cell.PerfMinimalFixSets = append(cell.PerfMinimalFixSets, f.String())
		}
	}

	// Wakeup-streak verdict: which minimal fix sets silence the
	// episode-level overload-on-wakeup witness present under the
	// studied kernel.
	streaksOf := func(f FixSet) int {
		if st := lat[f].WakeStreaks; st != nil {
			return st.Streaks
		}
		return 0
	}
	if base.WakeStreaks != nil && base.WakeStreaks.Streaks > 0 {
		cell.BaselineStreaks = base.WakeStreaks.Streaks
		cell.BaselineLongestStreak = base.WakeStreaks.Longest
		minimal := minimalSets(func(f FixSet) bool { return streaksOf(f) == 0 })
		cell.StreakUnresolved = len(minimal) == 0
		for _, f := range minimal {
			cell.StreakMinimalFixSets = append(cell.StreakMinimalFixSets, f.String())
		}
	}

	// Latency verdict over completed runs carrying digests: the
	// tail-latency analogue of the makespan verdict. A completed run
	// without a wake digest recorded no wakeup-to-run delays, which is
	// a genuine zero tail; the axis is skipped entirely only when no
	// completed run has a digest (a pre-latency artifact).
	p99Of := func(f FixSet) int64 {
		if d := lat[f].WakeLatency; d != nil {
			return d.P99Ns
		}
		return 0
	}
	anyDigest := false
	bestLat := FixSet(0)
	bestLatNs := int64(-1)
	for _, f := range All() {
		if !lat[f].Completed {
			continue
		}
		if lat[f].WakeLatency != nil {
			anyDigest = true
		}
		if p99 := p99Of(f); bestLatNs < 0 || p99 < bestLatNs {
			bestLat, bestLatNs = f, p99
		}
	}
	if anyDigest && bestLatNs >= 0 {
		cell.LatencyBestSet = bestLat.String()
		cell.LatencyBestP99Ns = bestLatNs
		limit := float64(bestLatNs)*(1+LatencyTolerancePct/100) + float64(LatencySlack)
		qualifies := func(f FixSet) bool {
			return lat[f].Completed && float64(p99Of(f)) <= limit
		}
		for _, f := range minimalSets(qualifies) {
			cell.LatencyMinimalFixSets = append(cell.LatencyMinimalFixSets, f.String())
		}
	}

	cell.ExplainCheck = explainCheck(&cell, base)
	return cell
}

// explainCheck builds the causal-vs-statistical cross-check for one cell
// from the baseline's explain report (nil when the campaign ran without
// explain, or the baseline replayed no episodes).
func explainCheck(cell *Cell, base *campaign.Result) *ExplainCheck {
	ex := base.Explain
	if ex == nil || len(ex.Episodes) == 0 {
		return nil
	}
	ec := &ExplainCheck{Episodes: len(ex.Episodes)}
	checkerFixes := map[string]bool{}
	streakFixes := map[string]bool{}
	for _, ep := range ex.Episodes {
		union := checkerFixes
		if ep.Kind == "streak" {
			ec.StreakEpisodes++
			union = streakFixes
		}
		if len(ep.Attribution) > 0 {
			ec.Attributed++
		}
		for _, f := range ep.Attribution {
			union[f] = true
		}
	}
	// Render the unions in canonical lattice order, so the artifact stays
	// byte-stable.
	for _, bit := range Singles() {
		if checkerFixes[bit.String()] {
			ec.CheckerFixes = append(ec.CheckerFixes, bit.String())
		}
		if streakFixes[bit.String()] {
			ec.StreakFixes = append(ec.StreakFixes, bit.String())
		}
	}
	ec.AgreesWithMinimal = minimalCovered(cell.MinimalFixSets, checkerFixes) &&
		minimalCovered(cell.StreakMinimalFixSets, streakFixes)
	return ec
}

// minimalCovered reports whether some minimal fix set is fully contained
// in the eraser union (vacuously true when the cell has no minimal sets
// on this axis — nothing to cross-check).
func minimalCovered(minimal []string, erasers map[string]bool) bool {
	if len(minimal) == 0 {
		return true
	}
	for _, set := range minimal {
		covered := true
		for _, fix := range strings.Split(set, "+") {
			if !erasers[fix] {
				covered = false
				break
			}
		}
		if covered {
			return true
		}
	}
	return false
}

// minimalSets walks the lattice bottom-up (by popcount) and returns the
// minimal elements of the family {f : ok(f)}: every ok set none of whose
// proper subsets is ok. ok is evaluated exactly once per lattice point
// (the memoized cells); subset reachability propagates through the Hasse
// diagram (f covers f&^bit) instead of re-enumerating subsets.
func minimalSets(ok func(FixSet) bool) []FixSet {
	var okMemo, subsetOK [NumSets]bool
	for mask := 0; mask < NumSets; mask++ {
		f := FixSet(mask)
		okMemo[mask] = ok(f)
		for _, bit := range Singles() {
			if f.Has(bit) {
				child := mask &^ int(bit)
				if okMemo[child] || subsetOK[child] {
					subsetOK[mask] = true
					break
				}
			}
		}
	}
	var out []FixSet
	for mask := 0; mask < NumSets; mask++ {
		if okMemo[mask] && !subsetOK[mask] {
			out = append(out, FixSet(mask))
		}
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- seed stability ------------------------------------------------------

// Stability reports whether a (topology, workload) cell's verdict is
// identical across every seed of the sweep.
type Stability struct {
	Topology string
	Workload string
	Seeds    []int64
	Stable   bool
	// Signatures maps each distinct verdict signature to the seeds that
	// produced it (one entry when Stable).
	Signatures map[string][]int64
}

// verdictSignature is the canonical comparison string of a cell's
// verdict: minimal sets, per-class minimal sets, perf minimal sets and
// interaction edges — everything except raw metric values, which
// legitimately jitter across seeds.
func (c *Cell) verdictSignature() string {
	var b strings.Builder
	fmt.Fprintf(&b, "minimal=%v unresolved=%v perf=%v streak=%v latency=%v",
		c.MinimalFixSets, c.Unresolved, c.PerfMinimalFixSets,
		c.StreakMinimalFixSets, c.LatencyMinimalFixSets)
	for _, cv := range c.ClassVerdicts {
		fmt.Fprintf(&b, " %s=%v", cv.Class, cv.MinimalFixSets)
	}
	var edges []string
	for _, in := range c.Interactions {
		edges = append(edges, in.Base+"+"+in.Added)
	}
	sort.Strings(edges)
	fmt.Fprintf(&b, " interactions=%v", edges)
	return b.String()
}

// SeedStability groups cells by (topology, workload) and compares their
// verdict signatures across seeds, in cell order.
func (r *Report) SeedStability() []Stability {
	type key struct{ topo, load string }
	byCell := map[key]*Stability{}
	var order []key
	for i := range r.Cells {
		c := &r.Cells[i]
		k := key{c.Topology, c.Workload}
		st := byCell[k]
		if st == nil {
			st = &Stability{Topology: c.Topology, Workload: c.Workload,
				Signatures: map[string][]int64{}}
			byCell[k] = st
			order = append(order, k)
		}
		st.Seeds = append(st.Seeds, c.Seed)
		sig := c.verdictSignature()
		st.Signatures[sig] = append(st.Signatures[sig], c.Seed)
	}
	var out []Stability
	for _, k := range order {
		st := byCell[k]
		st.Stable = len(st.Signatures) == 1
		out = append(out, *st)
	}
	return out
}

// --- artifact IO ---------------------------------------------------------

// EncodeJSON renders the report as stable, indented JSON with a trailing
// newline. Identical reports encode to identical bytes.
func (r *Report) EncodeJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile writes the JSON artifact to path.
func (r *Report) WriteFile(path string) error {
	data, err := r.EncodeJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a bisect artifact written by WriteFile.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("bisect: %s: %w", path, err)
	}
	return r, nil
}

// Decode parses a bisect artifact from its JSON bytes, with the
// checks Load applies.
func Decode(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing artifact: %w", err)
	}
	if r.Version != Version {
		return nil, fmt.Errorf("artifact version %d, want %d", r.Version, Version)
	}
	if r.Campaign == nil {
		return nil, fmt.Errorf("no embedded campaign artifact")
	}
	if r.Campaign.Version != campaign.Version {
		return nil, fmt.Errorf("embedded campaign artifact version %d, want %d", r.Campaign.Version, campaign.Version)
	}
	return &r, nil
}

// FormatSummary renders the report as a human-readable verdict list.
func (r *Report) FormatSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bisect: %d cells x %d lattice points (base seed %d, scale %.3g, checker S=%v M=%v)\n",
		len(r.Cells), NumSets, r.BaseSeed, float64(r.ScaleMilli)/1000,
		sim.Time(r.CheckerSNs), sim.Time(r.CheckerMNs))
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(&b, "\n%s:\n", c.Key())
		if c.BaselineViolations == 0 {
			fmt.Fprintf(&b, "  baseline clean: no confirmed idle-while-overloaded episodes\n")
		} else {
			fmt.Fprintf(&b, "  baseline: %d episodes, %v idle-while-overloaded (%s)\n",
				c.BaselineViolations, sim.Time(c.BaselineIdleNs), formatClasses(c.BaselineClasses))
			if c.Unresolved {
				fmt.Fprintf(&b, "  minimal fix sets: UNRESOLVED (no lattice point zeroes every baseline class)\n")
			} else {
				fmt.Fprintf(&b, "  minimal fix sets: %s\n", formatNamedSets(c.MinimalFixSets))
			}
			for _, cv := range c.ClassVerdicts {
				verdict := formatNamedSets(cv.MinimalFixSets)
				if cv.Unresolved {
					verdict = "UNRESOLVED"
				}
				fmt.Fprintf(&b, "    %-20s %3d episodes, %12v -> %s\n",
					cv.Class, cv.BaselineEpisodes, sim.Time(cv.BaselineIdleNs), verdict)
			}
		}
		for _, in := range c.Interactions {
			fmt.Fprintf(&b, "  non-monotone: {%s} +%s -> {%s}: %v -> %v idle-while-overloaded (%s)\n",
				in.Base, in.Added, in.Combined,
				sim.Time(in.BaseIdleNs), sim.Time(in.CombinedIdleNs), formatClasses(in.Classes))
		}
		if c.BaselineStreaks > 0 {
			verdict := formatNamedSets(c.StreakMinimalFixSets)
			if c.StreakUnresolved {
				verdict = "UNRESOLVED"
			}
			fmt.Fprintf(&b, "  wake streaks (>=%d busy-while-idle): baseline %d (longest %d) -> zeroed by %s\n",
				r.StreakK, c.BaselineStreaks, c.BaselineLongestStreak, verdict)
		}
		if c.LatencyBestSet != "" {
			fmt.Fprintf(&b, "  latency: best {%s} p99-wake %v; minimal within %.3g%%+%v: %s\n",
				c.LatencyBestSet, sim.Time(c.LatencyBestP99Ns), r.LatencyTolerancePct,
				sim.Time(r.LatencySlackNs), formatNamedSets(c.LatencyMinimalFixSets))
		}
		if c.PerfBestSet != "" {
			fmt.Fprintf(&b, "  perf: best {%s} at %v; minimal within %.3g%%: %s\n",
				c.PerfBestSet, sim.Time(c.PerfBestMakespanNs), r.PerfTolerancePct,
				formatNamedSets(c.PerfMinimalFixSets))
		}
		if ec := c.ExplainCheck; ec != nil {
			agree := "AGREES with the lattice verdict"
			if !ec.AgreesWithMinimal {
				agree = "does NOT cover the lattice verdict"
			}
			fmt.Fprintf(&b, "  explain: %d episodes replayed (%d streak), %d causally attributed; erasers checker=%v streak=%v — %s\n",
				ec.Episodes, ec.StreakEpisodes, ec.Attributed, ec.CheckerFixes, ec.StreakFixes, agree)
		}
	}
	return b.String()
}

func formatNamedSets(names []string) string {
	if len(names) == 0 {
		return "(none)"
	}
	var parts []string
	for _, n := range names {
		parts = append(parts, "{"+n+"}")
	}
	return strings.Join(parts, " | ")
}

func formatClasses(m map[string]int) string {
	if len(m) == 0 {
		return "no classes"
	}
	var parts []string
	for _, k := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s:%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}
