// Package experiments reproduces every table and figure of the paper's
// evaluation, returning structured results plus a paper-style formatted
// table. Tables 1–3 run the campaign workloads that define their
// scenarios (nas-pin, tpch and nas-hotplug, through runGrid), so the
// sweeps and the tables share one definition of each; the figures and
// the §3.1 lu+R run build their own machines. The benchmark harness
// (bench_test.go) and the wastedcores CLI are thin wrappers over this
// package.
//
// Independent runs (the NAS tables run 9 applications x 2 kernels,
// Table 2 runs 4 fix combinations) execute on the campaign worker pool
// (campaign.ForEach): each run owns its machine and seed, so results
// are identical to sequential execution — only faster.
package experiments

import (
	"repro/internal/campaign"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Options tunes experiment runs.
type Options struct {
	// Seed drives all randomized workload synthesis.
	Seed int64
	// Scale shrinks workloads for fast runs (1.0 = paper-scale
	// simulation, tests and benches use less).
	Scale float64
}

// horizon bounds each individual run in virtual time, as it bounds a
// campaign scenario by default.
const horizon = 200 * sim.Second

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// runGrid runs every registered campaign workload under every fix set
// (its fx-* lattice config: kernel defaults plus those fixes), each in
// a fresh world on the registered bulldozer8 (the paper's machine)
// whose engine and workload seed are opts.Seed, and returns
// out[workload][fix set]. A table thus runs exactly the scenario a
// campaign runs, but attaches no sanity checker and derives no seed
// from the scenario key, so its numbers depend on opts.Seed alone.
// launch is the virtual time at which the workloads start the program
// a table times; each run is bounded at launch+horizon, so the program
// itself gets the whole horizon.
func runGrid(opts Options, launch sim.Time, workloads []string, fixes []sched.Features) [][]campaign.Outcome {
	opts = opts.withDefaults()
	ws := campaign.MustWorkloads(workloads...)
	bulldozer8 := campaign.MustTopologies("bulldozer8")[0]
	outs := campaign.ForEach(len(ws)*len(fixes), 0, func(i int) campaign.Outcome {
		topo := bulldozer8.Build()
		m := machine.New(topo, sched.DefaultConfig().WithFixes(fixes[i%len(fixes)]), opts.Seed)
		return ws[i/len(fixes)].Run(&campaign.RunContext{
			M: m, Topo: topo, Seed: opts.Seed, Scale: opts.Scale, Horizon: launch + horizon,
		})
	})
	grid := make([][]campaign.Outcome, len(ws))
	for w := range grid {
		grid[w] = outs[w*len(fixes) : (w+1)*len(fixes)]
	}
	return grid
}
