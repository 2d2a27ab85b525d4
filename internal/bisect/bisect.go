// Package bisect reasons over campaign results instead of producing
// them: it fans the full 2^4 bug-fix lattice (every subset of the
// paper's four fixes) through the campaign worker pool for each
// (topology, workload, seed) cell, then walks the lattice to name, per
// idle-while-overloaded episode class, the minimal fix set(s) that
// eliminate it — turning the paper's Tables 1–4 attribution narrative
// ("this bug is fixed by that patch") into machine-checked evidence.
//
// Three verdicts come out of the walk, all memoized over the 16 lattice
// points of a cell:
//
//   - episode verdicts: a fix set is clean when it zeroes every episode
//     class the sanity checker confirmed under the studied kernel
//     (fx-none); the minimal clean sets are the lattice's minimal
//     elements, computed by a bottom-up walk that propagates
//     "some subset is already clean" through the Hasse diagram;
//   - interaction reports for non-monotone edges: pairs (S, S+fix)
//     where adding a fix *re-introduces* idle-while-overloaded time, as
//     the Group Imbalance min-load fix does under affinity pinning
//     (the ROADMAP anomaly, reported with the classes it re-introduces);
//   - performance verdicts: the minimal fix sets whose makespan lands
//     within a tolerance of the best lattice point — the attribution
//     signal for pathologies like §3.3's TPC-H stacking whose episodes
//     are too short for invariant confirmation but whose latency cost
//     is very real.
//
// The bisect artifact embeds the underlying campaign artifact, so the
// byte-identical-for-any-worker-count guarantee carries over, and a
// -baseline report can explain a byte difference scenario by scenario.
package bisect

import (
	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/sim"
)

// The verdict tolerances. Every report stamps them, and verdicts are
// only comparable across equal tolerances.
const (
	// PerfTolerancePct is the makespan slack for the performance
	// verdict: a fix set qualifies when its makespan is within this
	// percentage of the best lattice point.
	PerfTolerancePct float64 = 10
	// LatencyTolerancePct is the relative slack of the latency verdict:
	// a fix set qualifies when its p99 wakeup-to-run delay is within
	// this percentage of the best lattice point.
	LatencyTolerancePct float64 = 10
	// LatencySlack is the absolute slack added on top — without it a
	// best p99 of zero (every wakeup ran immediately, the usual result
	// under the OoW fix) would demand bit-exact zeroes from every
	// qualifying set. Tails under this floor are treated as equally
	// good.
	LatencySlack = 100 * sim.Microsecond
)

// Options declares a bisection sweep: the non-config dimensions of the
// matrix (the configs are always the 16 lattice points) plus the
// runner's tuning.
type Options struct {
	Topologies []campaign.TopologySpec
	Workloads  []campaign.Workload
	Seeds      []int64

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

	// Checker is the sanity-checker lens the sweep runs under. The zero
	// value uses a 20ms check interval with a 15ms monitoring window —
	// denser than the campaign default (100ms/50ms) because the Group
	// Imbalance episodes of §3.1 persist for tens of milliseconds at
	// experiment scale; the window still filters shorter transients as
	// legal. 15ms is a calibration: at 10ms, single borderline
	// confirmations (one isolated window, never recurring) leak through
	// on a minority of seeds and destabilize per-seed verdicts, while at
	// 15ms every persistent pathology still confirms (the §3.1 and
	// Table 1 baselines keep multi-episode signatures). Only Run
	// consults it: Analyze reads the lens from the campaign artifact,
	// which records what actually ran.
	Checker checker.Config

	// Explain attaches the causal-observability layer (see
	// campaign.RunnerOpts.Explain) to every lattice point: decision
	// provenance plus per-episode counterfactual replays. Analyze then
	// cross-checks each cell's per-episode single-fix attributions
	// against the lattice's minimal fix sets (Cell.ExplainCheck). The
	// divergence probe proves decisions equal, not the replays explain
	// runs, so every lattice point then runs as its own job.
	Explain bool
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

// Matrix expands the options into the campaign matrix of the sweep: the
// cross-product of the cells with the 16 lattice configurations.
func (o Options) Matrix() campaign.Matrix {
	o = o.withDefaults()
	return campaign.Matrix{
		Topologies: o.Topologies,
		Workloads:  o.Workloads,
		Configs:    campaign.LatticeConfigs(),
		Seeds:      o.Seeds,
		Scale:      o.Scale,
		Horizon:    o.Horizon,
	}
}

// RunnerOpts is the campaign runner configuration of the sweep, with
// the options' defaults applied: Run and every run path of cmd/bisect
// run the lattice under it.
func (o Options) RunnerOpts() campaign.RunnerOpts {
	o = o.withDefaults()
	return campaign.RunnerOpts{Workers: o.Workers, BaseSeed: o.BaseSeed,
		Checker: o.Checker, StreakK: o.StreakK, Explain: o.Explain}
}

// Run executes the sweep on the campaign worker pool and analyzes it.
// Like campaign artifacts, the report is byte-identical for any worker
// count and scenario order. Each cell's 16 lattice points run as one
// job that simulates a point only when it can differ, copying the
// results of lattice points whose extra fixes provably never fired
// (campaign.RunnerOpts.NoFork simulates every point instead; both
// produce identical bytes).
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	c, err := campaign.Run(opts.Matrix(), opts.RunnerOpts())
	if err != nil {
		return nil, err
	}
	return Analyze(c, opts)
}

// --- presets -------------------------------------------------------------

// SmokeOptions is the small CI sweep: the paper's Bulldozer machine, the
// Table 1 pinned run, the §3.1 make+R mix, and the §3.3 database — 48
// scenarios that exhibit the Group Construction and Group Imbalance
// episode classes, the min-load interaction anomaly, and (via TPC-H's
// wakeup-placement streaks) the episode-level overload-on-wakeup
// witness whose episodes are too short for checker confirmation.
func SmokeOptions() Options {
	o := Options{
		Topologies: campaign.MustTopologies("bulldozer8"),
		Workloads:  campaign.MustWorkloads("nas-pin:lu", "make2r", "tpch"),
		Seeds:      []int64{1},
		Scale:      0.5,
		Horizon:    100 * sim.Second,
	}
	return o.withDefaults()
}

// DefaultOptions covers all four pathologies on both paper machines:
// 128 scenarios.
func DefaultOptions() Options {
	o := Options{
		Topologies: campaign.MustTopologies("bulldozer8", "machine32"),
		Workloads:  campaign.MustWorkloads("make2r", "nas-pin:lu", "nas-hotplug:lu", "tpch"),
		Seeds:      []int64{1},
		Scale:      0.5,
	}
	return o.withDefaults()
}

// FullOptions adds a control topology, the unpinned NAS run, and a
// second seed: 480 scenarios.
func FullOptions() Options {
	o := Options{
		Topologies: campaign.MustTopologies("bulldozer8", "machine32", "twonode8"),
		Workloads:  campaign.MustWorkloads("make2r", "nas-pin:lu", "nas-hotplug:lu", "tpch", "nas:lu"),
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
