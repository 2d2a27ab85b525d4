// Package tourney runs scheduler-policy tournaments: the campaign
// machinery pointed at the policy dimension instead of the fix lattice.
// Where bisect asks "which minimal set of the paper's four fixes clears
// this cell", a tournament asks the more general question the fixes are
// a special case of — "which *scheduler design* wins this cell, and on
// which axis?"
//
// A tournament is a campaign matrix of (topology, workload, seed) cells
// crossed with registered policies (internal/policy): lattice points,
// the modular §5 redesign, the §2.2 globalq queue designs, and the
// placement-axis variants. Because engine seeds derive from the cell
// key (config excluded), every policy of a cell sees the same workload
// jitter stream: score differences are scheduler behaviour, nothing
// else.
//
// Analyze reduces the artifact to per-cell verdicts on four axes —
// makespan, p99 wakeup latency, wakeup-streak count, migration count —
// naming the best policy and every policy within tolerance of it, and
// then surfaces non-monotone interactions across cells: policy pairs
// where A beats B on some cell and B beats A on another (beyond
// tolerance), the policy-space analogue of the lattice's interaction
// anomalies. Like bisect, the report embeds the campaign artifact, so
// byte-determinism and the scenario-level -baseline report carry over.
package tourney

import (
	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/sim"
)

// The verdict lens. Every report stamps it, and verdicts are only
// comparable across equal lenses.
const (
	// TolerancePct is the verdict slack on every axis: a policy is a
	// winner when its value is within this percentage of the best.
	TolerancePct float64 = 5
	// LatencySlack is the absolute slack added on the p99-wake axis —
	// without it a best p99 of zero would demand bit-exact zeroes from
	// every co-winner.
	LatencySlack = 100 * sim.Microsecond
)

// Options declares a tournament: the cell dimensions, the policy
// lineup, and the runner's tuning.
type Options struct {
	Topologies []campaign.TopologySpec
	Workloads  []campaign.Workload
	// Policies is the lineup; every cell runs every policy. At least
	// two are required (a tournament of one has no verdicts).
	Policies []campaign.ConfigSpec
	Seeds    []int64

	// Scale multiplies workload sizes (0 = 1.0).
	Scale float64
	// Horizon bounds each scenario in virtual time (0 = 200s).
	Horizon sim.Time
	// Workers sizes the campaign worker pool (0 = GOMAXPROCS).
	Workers int
	// BaseSeed perturbs every scenario's derived engine seed.
	BaseSeed int64
	// StreakK overrides the wakeup-streak threshold (0 =
	// latency.DefaultStreakK). Only Run consults it; Analyze reads the
	// stamped threshold from the artifact.
	StreakK int

	// Checker is the sanity-checker lens the scenarios run under. The
	// zero value uses the bisect lens (20ms interval, 15ms window) so
	// tournament idle-while-overloaded numbers are comparable with
	// bisect cells; see bisect.Options.Checker for the calibration.
	Checker checker.Config
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Horizon == 0 {
		o.Horizon = 200 * sim.Second
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1}
	}
	if o.Checker.S == 0 {
		o.Checker.S = 20 * sim.Millisecond
	}
	if o.Checker.M == 0 {
		o.Checker.M = 15 * sim.Millisecond
	}
	return o
}

// Matrix expands the options into the campaign matrix of the
// tournament: the cross-product of the cells with the policy lineup.
func (o Options) Matrix() campaign.Matrix {
	o = o.withDefaults()
	return campaign.Matrix{
		Topologies: o.Topologies,
		Workloads:  o.Workloads,
		Configs:    o.Policies,
		Seeds:      o.Seeds,
		Scale:      o.Scale,
		Horizon:    o.Horizon,
	}
}

// RunnerOpts is the campaign runner configuration of the tournament,
// with the options' defaults applied: Run and cmd/tourney run the
// lineup under it.
func (o Options) RunnerOpts() campaign.RunnerOpts {
	o = o.withDefaults()
	return campaign.RunnerOpts{Workers: o.Workers, BaseSeed: o.BaseSeed,
		Checker: o.Checker, StreakK: o.StreakK}
}

// Run executes the tournament on the campaign worker pool and analyzes
// it. Like campaign artifacts, the report is byte-identical for any
// worker count and scenario order. A cell whose lineup differs only in
// fix toggles runs as one job that simulates only the policies the
// divergence probe cannot prove equal to one already run, each on a
// fresh world; modules and attach hooks make decisions the probe does
// not watch, so a cell whose lineup has them runs one job per policy.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	c, err := campaign.Run(opts.Matrix(), opts.RunnerOpts())
	if err != nil {
		return nil, err
	}
	return Analyze(c, opts)
}

// --- presets -------------------------------------------------------------

// smokePolicies is the CI lineup: the studied and fixed kernels, the
// power-saving variant, the §5 modular redesign, both §2.2 queue
// designs, and the three placement-axis variants.
var smokePolicies = []string{
	"bugs", "fixed", "powersave", "modsched",
	"globalq-shared", "globalq-percore",
	"greedy-idlest", "affinity-strict", "numa-blind",
}

// SmokeOptions is the small CI tournament: the paper's Bulldozer
// machine, the §3.1 make+R mix and the Table 1 pinned NAS run, nine
// policies — 18 scenarios covering both queue designs, all placement
// variants, and both kernels of the paper's story.
func SmokeOptions() Options {
	o := Options{
		Topologies: campaign.MustTopologies("bulldozer8"),
		Workloads:  campaign.MustWorkloads("make2r", "nas-pin:lu"),
		Policies:   campaign.MustConfigs(smokePolicies...),
		Seeds:      []int64{1},
		Scale:      0.4,
		Horizon:    100 * sim.Second,
	}
	return o.withDefaults()
}

// DefaultOptions covers both paper machines and the §3.3 database with
// the same lineup: 54 scenarios.
func DefaultOptions() Options {
	o := Options{
		Topologies: campaign.MustTopologies("bulldozer8", "machine32"),
		Workloads:  campaign.MustWorkloads("make2r", "nas-pin:lu", "tpch"),
		Policies:   campaign.MustConfigs(smokePolicies...),
		Seeds:      []int64{1},
		Scale:      0.5,
	}
	return o.withDefaults()
}

// FullOptions adds a control topology, the unpinned NAS run, and a
// second seed: 216 scenarios.
func FullOptions() Options {
	o := Options{
		Topologies: campaign.MustTopologies("bulldozer8", "machine32", "twonode8"),
		Workloads:  campaign.MustWorkloads("make2r", "nas-pin:lu", "nas:lu", "tpch"),
		Policies:   campaign.MustConfigs(smokePolicies...),
		Seeds:      []int64{1, 2},
		Scale:      0.5,
	}
	return o.withDefaults()
}

// OptionsByName resolves a preset name.
func OptionsByName(name string) (Options, bool) {
	switch name {
	case "smoke":
		return SmokeOptions(), true
	case "default":
		return DefaultOptions(), true
	case "full":
		return FullOptions(), true
	}
	return Options{}, false
}
