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
	"repro/internal/sim"
	"repro/internal/topology"
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

// runGrid runs every registered campaign workload under every
// registered config, each on a fresh bulldozer8 (the paper's machine)
// whose engine and workload seed are opts.Seed, and returns
// out[workload][config]. A table thus runs exactly the scenario a
// campaign runs, but attaches no sanity checker and derives no seed
// from the scenario key, so its numbers depend on opts.Seed alone.
// launch is the virtual time at which the workloads start the program
// a table times; each run is bounded at launch+horizon, so the program
// itself gets the whole horizon.
func runGrid(opts Options, launch sim.Time, workloads, configs []string) [][]campaign.Outcome {
	opts = opts.withDefaults()
	ws, cs := campaign.MustWorkloads(workloads...), campaign.MustConfigs(configs...)
	outs := campaign.ForEach(len(ws)*len(cs), 0, func(i int) campaign.Outcome {
		topo, c := topology.Bulldozer8(), cs[i%len(cs)]
		m := machine.New(topo, c.Config, opts.Seed)
		detach, err := c.Apply(m.Sched)
		if err != nil {
			panic("experiments: " + err.Error())
		}
		defer detach()
		return ws[i/len(cs)].Run(&campaign.RunContext{
			M: m, Topo: topo, Seed: opts.Seed, Scale: opts.Scale, Horizon: launch + horizon,
		})
	})
	grid := make([][]campaign.Outcome, len(ws))
	for w := range grid {
		grid[w] = outs[w*len(cs) : (w+1)*len(cs)]
	}
	return grid
}
