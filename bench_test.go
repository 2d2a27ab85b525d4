// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus microbenchmarks of the scheduler substrate.
//
// Each experiment benchmark runs the corresponding workload end to end at
// a reduced scale and reports the paper's headline quantity as a custom
// metric (speedup factors for Tables 1/3, percent improvements for
// Table 2, coverage counts for Figure 5) alongside the usual ns/op —
// regenerate the full-scale tables with `go run ./cmd/wastedcores`.
package schedsim_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	schedsim "repro"
	"repro/internal/bisect"
	"repro/internal/checker"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 42, Scale: 0.3}
}

// BenchmarkTable1 regenerates Table 1 (Scheduling Group Construction bug:
// NAS pinned to two 2-hop-apart nodes), reporting each app's speedup.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(benchOpts())
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.Speedup, r.App+"_speedup_x")
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (TPC-H under fix combinations),
// reporting Q18 and full-benchmark improvements.
func BenchmarkTable2(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 1
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(opts)
		if i == b.N-1 {
			for _, r := range rows {
				if r.Config == "None" {
					continue
				}
				name := strings.ReplaceAll(r.Config, " ", "-")
				b.ReportMetric(-r.Q18Pct, name+"_q18_improvement_pct")
				b.ReportMetric(-r.FullPct, name+"_full_improvement_pct")
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (Missing Scheduling Domains bug:
// NAS with 64 threads after a hotplug cycle).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(benchOpts())
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.Speedup, r.App+"_speedup_x")
			}
		}
	}
}

// BenchmarkGroupImbalanceLU regenerates the §3.1 lu + 4xR result (paper:
// 13x with the Group Imbalance fix) that feeds Table 4's maximum.
func BenchmarkGroupImbalanceLU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.GroupImbalanceLU(benchOpts())
		if i == b.N-1 {
			b.ReportMetric(res.Speedup, "lu_speedup_x")
		}
	}
}

// BenchmarkFig2 regenerates Figure 2 (Group Imbalance heatmaps and the
// make improvement; paper: make completes 13% faster with the fix).
func BenchmarkFig2(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 0.5
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2(opts)
		if i == b.N-1 {
			imp := 100 * (1 - res.MakeFix.Seconds()/res.MakeBug.Seconds())
			b.ReportMetric(imp, "make_improvement_pct")
			b.ReportMetric(float64(res.IdleNodesObserved), "underloaded_nodes")
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (Overload-on-Wakeup trace), reporting
// how many wakeups landed on busy cores.
func BenchmarkFig3(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 1
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(opts)
		if i == b.N-1 {
			b.ReportMetric(float64(res.WakeupsOnBusy), "wakeups_on_busy")
			b.ReportMetric(res.WastedCoreTime.Seconds()*1000, "wasted_core_ms")
		}
	}
}

// BenchmarkFig5 regenerates Figure 5 (cores considered by core 0 after the
// hotplug cycle): 8 with the bug, the cross-node spans with the fix.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig5(benchOpts())
		if i == b.N-1 {
			b.ReportMetric(float64(res.CoverageBug), "coverage_bug_cores")
			b.ReportMetric(float64(res.CoverageFix), "coverage_fix_cores")
		}
	}
}

// BenchmarkCampaign measures the scenario-campaign runner's parallel
// speedup: the smoke matrix executed with one worker versus one worker
// per CPU. The artifacts are byte-identical either way (asserted in
// internal/campaign's tests); this benchmark tracks the wall-clock win,
// reporting scenarios/sec and simulation events/sec so BENCH_*.json
// records both parallel and raw-engine throughput. Every run sets
// NoFork: collapsed cells copy results whose events were never
// simulated, so the allocation-per-event gate would stop measuring the
// sequential hot path it exists to check.
func BenchmarkCampaign(b *testing.B) {
	m := schedsim.DefaultCampaignMatrix()
	m.Scale = 0.1
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var scenarios int
			var events uint64
			for i := 0; i < b.N; i++ {
				c, err := schedsim.RunCampaign(m, schedsim.CampaignRunnerOpts{
					Workers:  workers,
					BaseSeed: 42,
					NoFork:   true,
				})
				if err != nil {
					b.Fatal(err)
				}
				scenarios = len(c.Results)
				events = 0
				for _, r := range c.Results {
					events += r.Events
				}
			}
			b.ReportMetric(float64(scenarios*b.N)/b.Elapsed().Seconds(), "scenarios/s")
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			// events/op lets benchjson derive allocs-per-event, the gate
			// that keeps the obs-disabled hot path allocation-free.
			b.ReportMetric(float64(events), "events/op")
		})
	}

	// The provenance=off run pins the zero-cost-when-off contract of the
	// scheduler's record sites (internal/sched/emit.go): the dense bisect
	// checker lens drives every site hot — balance verdicts, steal
	// rejections, wakeup placements, migrations, episode candidates —
	// with no recorder attached, and benchjson's -max-allocs-per-event
	// gate asserts the run still stays at or under one allocation per
	// event, so every site costs one branch. Its name is the key
	// baselines/bench-smoke.json pins.
	b.Run("provenance=off", func(b *testing.B) {
		var events uint64
		for i := 0; i < b.N; i++ {
			c, err := schedsim.RunCampaign(m, schedsim.CampaignRunnerOpts{
				Workers:  1,
				BaseSeed: 42,
				Checker:  checker.Config{S: 20 * sim.Millisecond, M: 15 * sim.Millisecond},
				NoFork:   true,
			})
			if err != nil {
				b.Fatal(err)
			}
			events = 0
			for _, r := range c.Results {
				events += r.Events
			}
		}
		b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		b.ReportMetric(float64(events), "events/op")
	})
}

// BenchmarkCampaignBisectFork measures the collapse win on the bisect
// lattice: the smoke sweep run on the collapsed path (each cell's
// points simulated from a fresh build only when the divergence probe
// cannot prove them equal to a point already run, the rest copied)
// versus RunnerOpts.NoFork, which simulates every scenario. Both paths
// produce byte-identical artifacts (asserted in internal/bisect's tests
// and by `make bisect-smoke` and `make bisect-default`); this benchmark
// records the wall-clock ratio as fork_speedup_x. Its name and metric
// predate the collapse; baselines/bench-smoke.json keys on the name. It
// deliberately reports no events/op — copied points simulate no events,
// so the allocation-free gate applies only to the sequential engine
// benchmarks.
func BenchmarkCampaignBisectFork(b *testing.B) {
	var forkSec, seqSec float64
	var scenarios int
	o := bisect.SmokeOptions()
	o.BaseSeed = 42
	for i := 0; i < b.N; i++ {
		for _, noFork := range []bool{false, true} {
			opts := o.RunnerOpts()
			opts.NoFork = noFork
			start := time.Now()
			c, err := schedsim.RunCampaign(o.Matrix(), opts)
			if err == nil {
				_, err = bisect.Analyze(c, o)
			}
			elapsed := time.Since(start).Seconds()
			if err != nil {
				b.Fatal(err)
			}
			scenarios = len(c.Results)
			if noFork {
				seqSec += elapsed
			} else {
				forkSec += elapsed
			}
		}
	}
	if forkSec > 0 {
		b.ReportMetric(seqSec/forkSec, "fork_speedup_x")
		b.ReportMetric(float64(scenarios*b.N)/forkSec, "scenarios/s")
	}
}

// BenchmarkCheckerOverhead measures the sanity checker's cost (§4.1: the
// paper reports < 0.5% with 10,000 threads): simulation events consumed
// per virtual second with and without the checker.
func BenchmarkCheckerOverhead(b *testing.B) {
	run := func(withChecker bool) uint64 {
		m := machine.New(topology.Bulldozer8(), sched.DefaultConfig(), 7)
		if withChecker {
			c := checker.New(m.Sched, nil, checker.Config{})
			c.Start()
		}
		p := m.NewProc("load", machine.ProcOpts{})
		prog := machine.NewProgram().Compute(5 * sim.Second).Build()
		for i := 0; i < 128; i++ {
			p.Spawn(prog, machine.SpawnOpts{})
		}
		m.Run(2 * sim.Second)
		return m.Eng.Processed()
	}
	var with, without uint64
	for i := 0; i < b.N; i++ {
		without = run(false)
		with = run(true)
	}
	if without > 0 {
		b.ReportMetric(100*float64(with-without)/float64(without), "overhead_pct")
	}
}

// BenchmarkSimulatorThroughput measures raw engine speed: virtual
// nanoseconds simulated per wall nanosecond for a saturated 64-core
// machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := machine.New(topology.Bulldozer8(), sched.DefaultConfig().WithFixes(sched.AllFixes()), 7)
		p := m.NewProc("load", machine.ProcOpts{})
		prog := machine.NewProgram().Compute(sim.Second).Build()
		for j := 0; j < 128; j++ {
			p.Spawn(prog, machine.SpawnOpts{})
		}
		m.Run(500 * sim.Millisecond)
	}
}

// BenchmarkWakeupPath measures the wakeup placement decision under both
// policies.
func BenchmarkWakeupPath(b *testing.B) {
	for _, fix := range []bool{false, true} {
		name := "bug"
		if fix {
			name = "fix"
		}
		b.Run(name, func(b *testing.B) {
			cfg := schedsim.DefaultConfig()
			cfg.Features.FixOverloadWakeup = fix
			m := schedsim.NewMachine(schedsim.Bulldozer8(), cfg, 7)
			db := schedsim.NewTPCH(m, schedsim.TPCHOpts{Containers: []int{32, 16, 16}, Autogroups: true, Seed: 1, Scale: 0.5})
			m.Run(50 * schedsim.Millisecond)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.RunQuery(i%22, schedsim.CoreID(i%64), 10*schedsim.Second)
			}
			b.ReportMetric(float64(m.Sched.Counters().WakeupsOnBusy), "wakeups_on_busy")
		})
	}
}
