package campaign

import (
	"sort"

	"repro/internal/sched"
)

// This file is the collapsed cell runner. A bisect sweep runs every
// subset of the paper's four fixes over each (topology, workload, seed)
// cell — 16 scenarios whose configs differ only in sched.Features, as do
// the cells of the smoke and default campaign matrices and of tourney
// lineups of plain configs. Run as one job per scenario, every config
// is simulated; this runner simulates a config only when its behaviour
// can differ from a config already run, each from a fresh runScenario
// build.
//
// The collapse rests on the divergence probe (sched.DivergenceProbe):
// each guarded decision in the scheduler re-evaluates itself under the
// flipped fixes and records which flips would have changed anything.
// A fix that never fired during a run cannot have affected the
// trajectory, so the run's artifact bytes are also the artifact of every
// config that only adds never-fired fixes. Single-node cells collapse gc
// and md immediately (domain hierarchies agree), hotplug-free cells
// collapse md — in the default sweep well over half the lattice points
// are copies. Cells the probe cannot vouch for fail cellCollapsible, and
// RunScenariosCtx runs their scenarios one job each, so both paths
// write the same bytes.

// RunScenariosForked is RunScenarios, kept for the sweep benchmark in
// bench/, which calls it by name: every runner collapses collapsible
// cells.
func RunScenariosForked(scenarios []Scenario, opts RunnerOpts) (*Campaign, error) {
	return RunScenarios(scenarios, opts)
}

// runCell executes one collapsible cell's scenarios into results
// (disjoint indices, so concurrent cells never race).
func runCell(scenarios []Scenario, idxs []int, opts RunnerOpts, results []Result) {
	// Ascending lattice order: smaller fix sets run first, so a
	// never-fired fix collapses the configs above before they are visited.
	sorted := append([]int(nil), idxs...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return scenarios[sorted[a]].Config.Config.Features < scenarios[sorted[b]].Config.Config.Features
	})

	covered := map[sched.Features]Result{} // fix set -> result of an equivalent run
	for _, i := range sorted {
		sc := scenarios[i]
		f := sc.Config.Config.Features
		r, ok := covered[f]
		if ok {
			r.Key = sc.Key()
			r.Config = sc.Config.Name
		} else {
			probe := &sched.DivergenceProbe{Armed: sched.AllFixes &^ f}
			r = runScenario(sc, opts, probe)
			// Equivalence collapse: every superset reachable by adding
			// only never-fired fixes shares this trajectory byte for byte.
			never := probe.Armed &^ probe.Fired
			for sub := never; ; sub = (sub - 1) & never {
				if _, ok := covered[f|sub]; !ok {
					covered[f|sub] = r
				}
				if sub == 0 {
					break
				}
			}
		}
		results[i] = r
		if opts.OnResult != nil {
			opts.OnResult(r)
		}
	}
}

// cellCollapsible reports whether a cell's scenarios can run on the
// collapsed path: configs that differ only in Features (with uniform
// scale and horizon), no placement modules or policy attach hooks, and
// no trace, metrics or explain attachments. The probe proves that two
// configs make equal decisions, not that they are observed equally, so
// observed cells run one job per scenario: the metrics registry
// histograms each balance pass's imbalance metric, which reads the
// group-imbalance flag even when no decision changes, and explain
// replays each episode under the other fixes, trajectories the probe
// never watched.
func cellCollapsible(scenarios []Scenario, idxs []int, opts RunnerOpts) bool {
	if opts.Trace || opts.Metrics || opts.Explain {
		return false
	}
	first := scenarios[idxs[0]]
	ref := first.Config.Config
	ref.Features = 0
	for _, i := range idxs {
		sc := scenarios[i]
		if len(sc.Config.Modules) > 0 || sc.Config.Attach != nil {
			return false
		}
		cfg := sc.Config.Config
		cfg.Features = 0
		if cfg != ref || sc.Scale != first.Scale || sc.Horizon != first.Horizon {
			return false
		}
	}
	return true
}
