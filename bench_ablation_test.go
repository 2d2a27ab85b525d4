// Ablation benchmarks for the design choices DESIGN.md calls out: the
// NOHZ handoff, balancing cadence, cache-hot migration gating, adaptive
// vs pure-spin barriers, and the §5 modular layer. Each reports the
// quantity the choice affects as a custom metric.
package schedsim_test

import (
	"fmt"
	"testing"

	"repro/internal/globalq"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// spreadTime measures how long the balancer takes to give all 64 stacked
// threads their own core under the given config.
func spreadTime(cfg sched.Config) sim.Time {
	m := machine.New(topology.Bulldozer8(), cfg, 7)
	p := m.NewProc("load", machine.ProcOpts{})
	prog := machine.NewProgram().Compute(10 * sim.Second).Build()
	for i := 0; i < 64; i++ {
		p.SpawnOn(0, prog, machine.SpawnOpts{})
	}
	step := sim.Millisecond
	for m.Eng.Now() < 2*sim.Second {
		m.Run(step)
		balanced := true
		for c := 0; c < 64; c++ {
			if m.Sched.NrRunning(topology.CoreID(c)) != 1 {
				balanced = false
				break
			}
		}
		if balanced {
			return m.Eng.Now()
		}
	}
	return 2 * sim.Second
}

// BenchmarkAblationNOHZ compares spread time with tickless idle (the
// kernel default since 2.6.21, §2.2.2) against always-ticking idle cores.
// NOHZ trades idle power for slower reaction: idle cores must be kicked.
func BenchmarkAblationNOHZ(b *testing.B) {
	for _, nohz := range []bool{true, false} {
		name := "tickless"
		if !nohz {
			name = "ticking"
		}
		b.Run(name, func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				cfg := sched.DefaultConfig().WithFixes(sched.AllFixes)
				cfg.NOHZ = nohz
				t = spreadTime(cfg)
			}
			b.ReportMetric(t.Seconds()*1000, "spread_ms")
		})
	}
}

// BenchmarkAblationBalanceInterval sweeps the base periodic-balance
// cadence (the paper's observed 4ms): faster balancing reacts sooner but
// runs the expensive procedure more often.
func BenchmarkAblationBalanceInterval(b *testing.B) {
	for _, interval := range []sim.Time{sim.Millisecond, 4 * sim.Millisecond, 16 * sim.Millisecond} {
		b.Run(fmt.Sprintf("%v", interval), func(b *testing.B) {
			var t sim.Time
			var calls uint64
			for i := 0; i < b.N; i++ {
				cfg := sched.DefaultConfig().WithFixes(sched.AllFixes)
				cfg.BalanceInterval = interval
				m := machine.New(topology.Bulldozer8(), cfg, 7)
				p := m.NewProc("load", machine.ProcOpts{})
				prog := machine.NewProgram().Compute(sim.Second).Build()
				for j := 0; j < 96; j++ {
					p.SpawnOn(0, prog, machine.SpawnOpts{})
				}
				m.Run(500 * sim.Millisecond)
				t = m.Sched.WastedCoreTime()
				calls = m.Sched.Counters().BalanceCalls
			}
			b.ReportMetric(t.Seconds()*1000, "wasted_core_ms")
			b.ReportMetric(float64(calls), "balance_calls")
		})
	}
}

// BenchmarkAblationMigrationCost sweeps the cache-hot threshold: 0
// migrates eagerly, large values pin threads to stale placements.
func BenchmarkAblationMigrationCost(b *testing.B) {
	for _, cost := range []sim.Time{0, 500 * sim.Microsecond, 5 * sim.Millisecond} {
		b.Run(fmt.Sprintf("%v", cost), func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				cfg := sched.DefaultConfig().WithFixes(sched.AllFixes)
				cfg.MigrationCost = cost
				t = spreadTime(cfg)
			}
			b.ReportMetric(t.Seconds()*1000, "spread_ms")
		})
	}
}

// BenchmarkAblationBarrierWait compares pure-spin against spin-then-block
// barriers for an oversubscribed barrier workload — the §3.2 mechanism
// knob: pure spinning burns whole timeslices while the straggler waits in
// a runqueue.
func BenchmarkAblationBarrierWait(b *testing.B) {
	run := func(blockAfter sim.Time) sim.Time {
		m := machine.New(topology.SMP(4), sched.DefaultConfig().WithFixes(sched.AllFixes), 7)
		p := m.NewProc("p", machine.ProcOpts{})
		bar := m.NewAdaptiveBarrier(8, blockAfter)
		prog := machine.NewProgram().
			Repeat(50, func(bb *machine.Builder) {
				bb.Compute(200 * sim.Microsecond).Barrier(bar)
			}).
			Build()
		for i := 0; i < 8; i++ {
			p.Spawn(prog, machine.SpawnOpts{})
		}
		end, _ := m.RunUntilDone(30*sim.Second, p)
		return end
	}
	for _, c := range []struct {
		name  string
		block sim.Time
	}{{"pure-spin", 0}, {"block-200us", 200 * sim.Microsecond}, {"block-2ms", 2 * sim.Millisecond}} {
		b.Run(c.name, func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				t = run(c.block)
			}
			b.ReportMetric(t.Seconds()*1000, "makespan_ms")
		})
	}
}

// BenchmarkAblationModular compares the three schedulers of §5 on the
// wakeup-heavy database workload: buggy, patched, and buggy+modular.
func BenchmarkAblationModular(b *testing.B) {
	run := func(fix, modular bool) sim.Time {
		cfg := sched.DefaultConfig()
		if fix {
			cfg.Features |= sched.FixOverloadWakeup
		}
		m := machine.New(topology.Bulldozer8(), cfg, 42)
		if modular {
			modsched.Attach(m.Sched, modsched.Config{}, modsched.CacheAffinity{})
		}
		db := workload.NewTPCH(m, workload.TPCHOpts{
			Containers: []int{32, 16, 16}, Autogroups: true, Seed: 42,
		})
		noise := workload.StartNoise(m, workload.DefaultNoiseOpts())
		defer noise.Stop()
		m.Run(50 * sim.Millisecond)
		var total sim.Time
		lats, _ := db.RunAll(60 * sim.Second)
		for _, l := range lats {
			total += l
		}
		return total
	}
	for _, c := range []struct {
		name         string
		fix, modular bool
	}{{"buggy", false, false}, {"patched", true, false}, {"modular", false, true}} {
		b.Run(c.name, func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				t = run(c.fix, c.modular)
			}
			b.ReportMetric(t.Seconds()*1000, "tpch_total_ms")
		})
	}
}

// BenchmarkAblationGroupMetric isolates the Group Imbalance fix's metric
// choice (average vs minimum) on the make + 2xR mix, reporting wasted
// core time.
func BenchmarkAblationGroupMetric(b *testing.B) {
	run := func(min bool) sim.Time {
		topo := topology.Bulldozer8()
		cfg := sched.DefaultConfig()
		if min {
			cfg.Features |= sched.FixGroupImbalance
		}
		m := machine.New(topo, cfg, 42)
		workload.LaunchR(m, topo.CoresOfNode(0)[0], 10*sim.Second)
		workload.LaunchR(m, topo.CoresOfNode(4)[0], 10*sim.Second)
		mk := workload.DefaultMakeOpts()
		mk.JobsPerThread = 20
		mk.SpawnCore = topo.CoresOfNode(2)[0]
		workload.LaunchMake(m, mk)
		m.Run(300 * sim.Millisecond)
		return m.Sched.WastedCoreTime()
	}
	for _, c := range []struct {
		name string
		min  bool
	}{{"average-load", false}, {"minimum-load", true}} {
		b.Run(c.name, func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				t = run(c.min)
			}
			b.ReportMetric(t.Seconds()*1000, "wasted_core_ms")
		})
	}
}

// BenchmarkAblationRunqueueDesign quantifies the §2.2 premise — the
// reason per-core runqueues (and hence all four bugs) exist: a shared
// global runqueue taxes every context switch with contention that grows
// with the core count.
func BenchmarkAblationRunqueueDesign(b *testing.B) {
	for _, cores := range []int{8, 64} {
		b.Run(fmt.Sprintf("%dcores", cores), func(b *testing.B) {
			var sh, pc globalq.Result
			for i := 0; i < b.N; i++ {
				sh, pc = globalq.Experiment(cores, 4, 20*sim.Millisecond)
			}
			b.ReportMetric(100*sh.OverheadFraction(), "shared_overhead_pct")
			b.ReportMetric(100*pc.OverheadFraction(), "percore_overhead_pct")
		})
	}
}
