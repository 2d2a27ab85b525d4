package campaign

import (
	"sort"

	"repro/internal/checker"
	"repro/internal/latency"
	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/sched"
)

// This file is the forked cell runner: the campaign half of
// checkpoint/fork. A bisect sweep runs every subset of the paper's four
// fixes over each (topology, workload, seed) cell — 16 scenarios whose
// configs differ only in sched.Features, as do the cells of the smoke
// and default campaign matrices and of tourney lineups of plain
// configs. Run one job per scenario, each simulates from scratch; this
// runner builds one t=0 world per cell, forks it per config, and — the
// real win — runs a config only when its behaviour can actually differ.
//
// The collapse rests on the divergence probe (sched.DivergenceProbe):
// each guarded decision in the scheduler re-evaluates itself under the
// flipped fix flags and records which flips would have changed anything.
// A fix flag that never fired during a run cannot have affected the
// trajectory, so the run's artifact bytes are also the artifact of every
// config that only adds never-fired flags. Single-node cells collapse gc
// and md immediately (domain hierarchies agree), hotplug-free cells
// collapse md — in the default sweep well over half the lattice points
// are copies.
//
// Forking happens at t=0, before the workload exists: the fork instant
// must coincide with Scheduler.Start's domain build so that
// ApplyFeatures' rebuild writes the same balance deadlines a sequential
// run's initial build wrote. Cells the machinery cannot replicate
// exactly — trace recorders, obs registries, placement modules, configs
// differing beyond Features — fail cellForkable, and RunScenariosCtx
// runs their scenarios one job each, so both paths write the same bytes.

// RunScenariosForked is RunScenarios, kept for the sweep benchmark in
// bench/, which calls it by name: every runner forks forkable cells.
func RunScenariosForked(scenarios []Scenario, opts RunnerOpts) (*Campaign, error) {
	return RunScenarios(scenarios, opts)
}

// runCell executes one forkable cell's scenarios into results (disjoint
// indices, so concurrent cells never race).
func runCell(scenarios []Scenario, idxs []int, opts RunnerOpts, results []Result) {
	// Ascending lattice order: lower masks run first, so a never-fired
	// flag set collapses the configs above before they are visited.
	sorted := append([]int(nil), idxs...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return featuresMask(scenarios[sorted[a]].Config.Config.Features) <
			featuresMask(scenarios[sorted[b]].Config.Config.Features)
	})

	// The shared t=0 world, constructed in runScenario's exact order (the
	// sequence numbers of the startup events must match a sequential
	// run's). The base features are fx-none; each fork applies its own.
	sc0 := scenarios[sorted[0]]
	engineSeed := DeriveSeed(opts.BaseSeed, sc0.CellKey(), sc0.Seed)
	topo := sc0.Topology.Build()
	baseCfg := sc0.Config.Config
	baseCfg.Features = sched.Features{}
	base := machine.New(topo, baseCfg, engineSeed)
	col := latency.NewCollector(latency.Config{StreakK: opts.EffectiveStreakK()})
	base.Sched.SetLatencyProbe(col)
	ck := checker.New(base.Sched, nil, opts.EffectiveChecker())
	ck.ObserveLatency(col)
	ck.Start()

	covered := map[int]Result{} // lattice mask -> result of an equivalent run
	for _, i := range sorted {
		sc := scenarios[i]
		mask := featuresMask(sc.Config.Config.Features)
		if r, ok := covered[mask]; ok {
			r.Key = sc.Key()
			r.Config = sc.Config.Name
			results[i] = r
			if opts.OnResult != nil {
				opts.OnResult(r)
			}
			continue
		}

		m := base.Fork()
		fcol := col.Clone()
		m.Sched.SetLatencyProbe(fcol)
		fck := ck.Clone(m.Sched, fcol)
		m.Sched.ApplyFeatures(sc.Config.Config.Features)
		probe := &sched.DivergenceProbe{Armed: maskFeatures(latticeFullMask &^ mask)}
		m.Sched.SetDivergenceProbe(probe)

		outcome := sc.Workload.Run(&RunContext{
			M:       m,
			Topo:    topo,
			Seed:    engineSeed,
			Scale:   sc.Scale,
			Horizon: sc.Horizon,
		})
		r := collectResult(sc, engineSeed, m, fck, fcol, outcome)
		fck.Stop()
		results[i] = r
		if opts.OnResult != nil {
			opts.OnResult(r)
		}

		// Equivalence collapse: every superset reachable by adding only
		// never-fired flags shares this trajectory byte for byte.
		never := (latticeFullMask &^ mask) &^ featuresMask(probe.Fired)
		for sub := never; ; sub = (sub - 1) & never {
			if _, ok := covered[mask|sub]; !ok {
				covered[mask|sub] = r
			}
			if sub == 0 {
				break
			}
		}
	}
}

// cellForkable reports whether a cell's scenarios can run on the forked
// path: no trace/metrics/explain attachments, no placement modules or
// policy attach hooks, and configs that differ only in Features (with
// uniform scale and horizon). Explain blocks the forked path because its
// episode hooks cannot survive a checker Clone (and its own forks would
// nest inside the lattice's).
func cellForkable(scenarios []Scenario, idxs []int, opts RunnerOpts) bool {
	if opts.Trace || opts.Metrics || opts.Explain {
		return false
	}
	first := scenarios[idxs[0]]
	ref := first.Config.Config
	ref.Features = sched.Features{}
	for _, i := range idxs {
		sc := scenarios[i]
		if len(sc.Config.Modules) > 0 || sc.Config.Attach != nil {
			return false
		}
		cfg := sc.Config.Config
		cfg.Features = sched.Features{}
		if cfg != ref || sc.Scale != first.Scale || sc.Horizon != first.Horizon {
			return false
		}
	}
	return true
}

// latticeFullMask has every lattice fix bit set.
const latticeFullMask = 1<<4 - 1

// featuresMask packs Features into the canonical lattice mask
// (latticeFixes bit order).
func featuresMask(f sched.Features) int {
	mask := 0
	if f.FixGroupImbalance {
		mask |= 1 << 0
	}
	if f.FixGroupConstruction {
		mask |= 1 << 1
	}
	if f.FixOverloadWakeup {
		mask |= 1 << 2
	}
	if f.FixMissingDomains {
		mask |= 1 << 3
	}
	return mask
}

// maskFeatures is featuresMask's inverse (the policy registry owns the
// canonical bit order).
func maskFeatures(mask int) sched.Features {
	return policy.LatticeFeatures(mask)
}
