package tourney

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

// Version identifies the tournament artifact schema.
const Version = 1

// The verdict axes, in report order. Every axis is
// smaller-is-better; makespan additionally ranks incomplete runs
// (horizon hit) below every complete one.
const (
	AxisMakespan   = "makespan"
	AxisP99Wake    = "p99_wake"
	AxisStreaks    = "wake_streaks"
	AxisMigrations = "migrations"
)

// Axes lists the verdict axes in canonical report order.
func Axes() []string {
	return []string{AxisMakespan, AxisP99Wake, AxisStreaks, AxisMigrations}
}

// Score is one policy's row in a cell: the four axis values plus the
// wasted-core headline.
type Score struct {
	Policy    string `json:"policy"`
	Completed bool   `json:"completed"`
	// MakespanNs is the workload completion time (horizon if not
	// Completed).
	MakespanNs int64 `json:"makespan_ns"`
	// P99WakeNs is the p99 wakeup-to-run delay (0 when the scenario
	// recorded no wake samples).
	P99WakeNs int64 `json:"p99_wake_ns"`
	// WakeStreaks counts wakeup-placement streaks at the campaign's
	// threshold K.
	WakeStreaks int `json:"wake_streaks"`
	// Migrations counts balancer + enforcement thread migrations.
	Migrations int64 `json:"migrations"`
	// IdleWhileOverloadedNs is the checker's confirmed wasted-core
	// time — context for the verdicts, not a verdict axis itself (its
	// zero-vs-zero ties carry no ranking signal the makespan axis
	// doesn't).
	IdleWhileOverloadedNs int64 `json:"idle_while_overloaded_ns"`
}

func (s *Score) axisValue(axis string) int64 {
	switch axis {
	case AxisMakespan:
		return s.MakespanNs
	case AxisP99Wake:
		return s.P99WakeNs
	case AxisStreaks:
		return int64(s.WakeStreaks)
	case AxisMigrations:
		return s.Migrations
	}
	panic("tourney: unknown axis " + axis)
}

// axisTier is the coarse rank class on an axis: on makespan, complete
// runs (tier 0) always beat incomplete ones (tier 1).
func (s *Score) axisTier(axis string) int {
	if axis == AxisMakespan && !s.Completed {
		return 1
	}
	return 0
}

// Verdict names an axis's best policy in a cell and every policy
// within tolerance of it.
type Verdict struct {
	Axis string `json:"axis"`
	// Best is the axis winner (lowest value; name order breaks exact
	// ties), and BestValue its value.
	Best      string `json:"best"`
	BestValue int64  `json:"best_value"`
	// Winners lists every policy within tolerance of Best (including
	// Best), sorted by name — the set CompareVerdicts gates on, so a
	// policy regression that drops someone out of the winner circle
	// (or promotes someone in) is a verdict change even when Best
	// itself is stable.
	Winners []string `json:"winners"`
}

// Cell is one (topology, workload, seed) cell's tournament outcome.
type Cell struct {
	Topology string `json:"topology"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Scores holds one row per policy, sorted by policy name.
	Scores []Score `json:"scores"`
	// Verdicts holds one entry per axis, in Axes() order.
	Verdicts []Verdict `json:"verdicts"`
}

// Key is the cell's stable identity.
func (c *Cell) Key() string {
	return fmt.Sprintf("%s/%s/s%d", c.Topology, c.Workload, c.Seed)
}

func (c *Cell) score(policy string) *Score {
	for i := range c.Scores {
		if c.Scores[i].Policy == policy {
			return &c.Scores[i]
		}
	}
	return nil
}

// Flip is a non-monotone interaction across the cell dimensions: on
// one axis, policy A beats policy B (beyond tolerance) in some cells
// while B beats A in others — evidence that neither dominates and the
// right choice depends on the (topology, workload) point, exactly the
// kind of interaction the fix lattice surfaces for fixes.
type Flip struct {
	Axis string `json:"axis"`
	// A and B are the pair, A < B by name.
	A string `json:"a"`
	B string `json:"b"`
	// ACells and BCells list the cell keys each side wins, sorted.
	ACells []string `json:"a_cells"`
	BCells []string `json:"b_cells"`
}

// Report is the tournament artifact.
type Report struct {
	Version int `json:"version"`
	// BaseSeed, ScaleMilli, HorizonNs, CheckerSNs/CheckerMNs and
	// StreakK echo the embedded campaign's stamps for summary headers.
	BaseSeed   int64 `json:"base_seed"`
	ScaleMilli int64 `json:"scale_milli"`
	HorizonNs  int64 `json:"horizon_ns"`
	CheckerSNs int64 `json:"checker_s_ns"`
	CheckerMNs int64 `json:"checker_m_ns"`
	StreakK    int   `json:"streak_k,omitempty"`
	// TolerancePct and LatencySlackNs record the verdict lens the
	// analysis ran under.
	TolerancePct   float64 `json:"tolerance_pct"`
	LatencySlackNs int64   `json:"latency_slack_ns"`
	// Policies lists the lineup, sorted by name.
	Policies []string `json:"policies"`
	// Cells are sorted by (topology, workload, seed).
	Cells []Cell `json:"cells"`
	// Flips lists the non-monotone pairs, sorted by (axis, a, b).
	Flips []Flip `json:"flips,omitempty"`
	// Campaign embeds the underlying campaign artifact, preserving the
	// byte-determinism guarantee and the scenario-level -baseline report.
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

// Analyze reduces a campaign artifact to a tournament report. It is a
// pure function of the artifact and the lineup: re-analyzing a loaded
// or merged artifact reproduces the report byte for byte. Every cell
// must contain a result for every policy in the lineup — opts.Policies
// when set, else every policy appearing anywhere in the artifact — so
// a partial artifact (one shard of a tournament) cannot be scored.
func Analyze(c *campaign.Campaign, opts Options) (*Report, error) {
	if c == nil || len(c.Results) == 0 {
		return nil, fmt.Errorf("tourney: empty campaign artifact")
	}

	type cellID struct {
		topo, load string
		seed       int64
	}
	polSet := map[string]bool{}
	byCell := map[cellID]map[string]*campaign.Result{}
	for i := range c.Results {
		r := &c.Results[i]
		polSet[r.Config] = true
		id := cellID{r.Topology, r.Workload, r.Seed}
		m := byCell[id]
		if m == nil {
			m = map[string]*campaign.Result{}
			byCell[id] = m
		}
		m[r.Config] = r
	}
	var policies []string
	if len(opts.Policies) > 0 {
		lineup := map[string]bool{}
		for _, p := range opts.Policies {
			policies = append(policies, p.Name)
			lineup[p.Name] = true
		}
		sort.Strings(policies)
		for p := range polSet {
			if !lineup[p] {
				return nil, fmt.Errorf("tourney: artifact has results for policy %q outside the lineup", p)
			}
		}
	} else {
		for p := range polSet {
			policies = append(policies, p)
		}
		sort.Strings(policies)
	}
	if len(policies) < 2 {
		return nil, fmt.Errorf("tourney: artifact has %d policy, need at least 2", len(policies))
	}
	ids := make([]cellID, 0, len(byCell))
	for id := range byCell {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].topo != ids[j].topo {
			return ids[i].topo < ids[j].topo
		}
		if ids[i].load != ids[j].load {
			return ids[i].load < ids[j].load
		}
		return ids[i].seed < ids[j].seed
	})

	rep := &Report{
		Version:        Version,
		BaseSeed:       c.BaseSeed,
		ScaleMilli:     c.ScaleMilli,
		HorizonNs:      c.HorizonNs,
		CheckerSNs:     c.CheckerSNs,
		CheckerMNs:     c.CheckerMNs,
		StreakK:        c.StreakK,
		TolerancePct:   TolerancePct,
		LatencySlackNs: int64(LatencySlack),
		Policies:       policies,
		Campaign:       c,
	}
	for _, id := range ids {
		cell := Cell{Topology: id.topo, Workload: id.load, Seed: id.seed}
		for _, p := range policies {
			r := byCell[id][p]
			if r == nil {
				return nil, fmt.Errorf("tourney: cell %s/%s/s%d has no result for policy %q",
					id.topo, id.load, id.seed, p)
			}
			s := Score{
				Policy:                p,
				Completed:             r.Completed,
				MakespanNs:            r.MakespanNs,
				Migrations:            int64(r.Counters.Migrations),
				IdleWhileOverloadedNs: r.IdleWhileOverloadedNs,
			}
			if r.WakeLatency != nil {
				s.P99WakeNs = r.WakeLatency.P99Ns
			}
			if r.WakeStreaks != nil {
				s.WakeStreaks = r.WakeStreaks.Streaks
			}
			cell.Scores = append(cell.Scores, s)
		}
		for _, axis := range Axes() {
			cell.Verdicts = append(cell.Verdicts, verdict(&cell, axis))
		}
		rep.Cells = append(rep.Cells, cell)
	}
	rep.Flips = flips(rep)
	return rep, nil
}

// within reports whether value is within the axis tolerance of best:
// the relative TolerancePct everywhere, plus the absolute LatencySlack
// on the p99-wake axis (integer-count axes get no absolute slack — a
// best of zero demands zero).
func within(axis string, value, best int64) bool {
	slack := 0.0
	if axis == AxisP99Wake {
		slack = float64(LatencySlack)
	}
	return float64(value) <= float64(best)*(1+TolerancePct/100)+slack
}

// beats reports whether a beats b on axis beyond tolerance — the flip
// predicate. Asymmetric: a must be better by more than the slack that
// would make b a co-winner.
func beats(axis string, a, b *Score) bool {
	at, bt := a.axisTier(axis), b.axisTier(axis)
	if at != bt {
		return at < bt
	}
	return !within(axis, b.axisValue(axis), a.axisValue(axis))
}

// verdict computes one axis's verdict for a cell.
func verdict(c *Cell, axis string) Verdict {
	best := &c.Scores[0]
	for i := range c.Scores[1:] {
		s := &c.Scores[i+1]
		if s.axisTier(axis) < best.axisTier(axis) ||
			(s.axisTier(axis) == best.axisTier(axis) && s.axisValue(axis) < best.axisValue(axis)) {
			best = s
		}
	}
	v := Verdict{Axis: axis, Best: best.Policy, BestValue: best.axisValue(axis)}
	for i := range c.Scores {
		s := &c.Scores[i]
		if s.axisTier(axis) == best.axisTier(axis) && within(axis, s.axisValue(axis), v.BestValue) {
			v.Winners = append(v.Winners, s.Policy)
		}
	}
	return v
}

// flips finds the non-monotone pairs: for every axis and policy pair,
// the cells each side wins beyond tolerance; a pair with wins on both
// sides is a flip.
func flips(r *Report) []Flip {
	var out []Flip
	for _, axis := range Axes() {
		for i, a := range r.Policies {
			for _, b := range r.Policies[i+1:] {
				var aCells, bCells []string
				for ci := range r.Cells {
					c := &r.Cells[ci]
					sa, sb := c.score(a), c.score(b)
					switch {
					case beats(axis, sa, sb):
						aCells = append(aCells, c.Key())
					case beats(axis, sb, sa):
						bCells = append(bCells, c.Key())
					}
				}
				if len(aCells) > 0 && len(bCells) > 0 {
					out = append(out, Flip{Axis: axis, A: a, B: b, ACells: aCells, BCells: bCells})
				}
			}
		}
	}
	return out
}

// CompareVerdicts diffs two reports' verdicts: changed winner circles
// per (cell, axis), plus cells present on only one side. An empty
// slice means the policy verdicts are identical. The -baseline report
// lists these lines next to the metrics that moved.
func CompareVerdicts(base, cur *Report) []string {
	keys := map[string]bool{}
	bc := map[string]*Cell{}
	for i := range base.Cells {
		c := &base.Cells[i]
		bc[c.Key()] = c
		keys[c.Key()] = true
	}
	cc := map[string]*Cell{}
	for i := range cur.Cells {
		c := &cur.Cells[i]
		cc[c.Key()] = c
		keys[c.Key()] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	var out []string
	for _, key := range sorted {
		b, c := bc[key], cc[key]
		switch {
		case b == nil:
			out = append(out, fmt.Sprintf("%s: cell absent from baseline", key))
			continue
		case c == nil:
			out = append(out, fmt.Sprintf("%s: cell missing from current run", key))
			continue
		}
		for _, axis := range Axes() {
			bv, cv := cellVerdict(b, axis), cellVerdict(c, axis)
			if bv == nil || cv == nil {
				if bv != cv {
					out = append(out, fmt.Sprintf("%s %s: verdict present on one side only", key, axis))
				}
				continue
			}
			if bv.Best != cv.Best || !equalStrings(bv.Winners, cv.Winners) {
				out = append(out, fmt.Sprintf("%s %s: best %s winners [%s] -> best %s winners [%s]",
					key, axis, bv.Best, strings.Join(bv.Winners, " "),
					cv.Best, strings.Join(cv.Winners, " ")))
			}
		}
	}
	return out
}

func cellVerdict(c *Cell, axis string) *Verdict {
	for i := range c.Verdicts {
		if c.Verdicts[i].Axis == axis {
			return &c.Verdicts[i]
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- artifact IO ---------------------------------------------------------

// EncodeJSON renders the report as stable, indented JSON with a
// trailing newline. Identical reports encode to identical bytes.
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

// Load reads a tournament artifact written by WriteFile.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("tourney: %s: %w", path, err)
	}
	return r, nil
}

// Decode parses a tournament artifact from its JSON bytes, with the
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

// FormatSummary renders the report as human-readable verdict tables.
func (r *Report) FormatSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tourney: %d cells x %d policies (base seed %d, scale %.3g, checker S=%v M=%v, tolerance %.3g%%)\n",
		len(r.Cells), len(r.Policies), r.BaseSeed, float64(r.ScaleMilli)/1000,
		sim.Time(r.CheckerSNs), sim.Time(r.CheckerMNs), r.TolerancePct)
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(&b, "\n%s:\n", c.Key())
		fmt.Fprintf(&b, "  %-16s %12s %10s %8s %8s %12s\n",
			"policy", "makespan", "p99-wake", "streaks", "migr", "idle-ovl")
		for j := range c.Scores {
			s := &c.Scores[j]
			makespan := sim.Time(s.MakespanNs).String()
			if !s.Completed {
				makespan = ">" + makespan
			}
			fmt.Fprintf(&b, "  %-16s %12s %10s %8d %8d %12s\n",
				s.Policy, makespan, sim.Time(s.P99WakeNs), s.WakeStreaks,
				s.Migrations, sim.Time(s.IdleWhileOverloadedNs))
		}
		for j := range c.Verdicts {
			v := &c.Verdicts[j]
			fmt.Fprintf(&b, "  best %-12s %s (within tolerance: %s)\n",
				v.Axis+":", v.Best, strings.Join(v.Winners, ", "))
		}
	}
	if len(r.Flips) > 0 {
		fmt.Fprintf(&b, "\nnon-monotone interactions (neither policy dominates):\n")
		for i := range r.Flips {
			f := &r.Flips[i]
			fmt.Fprintf(&b, "  %-12s %s beats %s in [%s]; %s beats %s in [%s]\n",
				f.Axis+":", f.A, f.B, strings.Join(f.ACells, ", "),
				f.B, f.A, strings.Join(f.BCells, ", "))
		}
	}
	return b.String()
}
