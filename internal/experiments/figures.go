package experiments

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/viz"
	"repro/internal/workload"
)

// Fig1 renders the scheduling-domain hierarchy of the paper's Figure 1
// machine: 32 cores, four nodes, SMT pairs, with a three-node one-hop
// neighborhood.
func Fig1() string {
	topo := topology.Machine32()
	eng := sim.New(1)
	s := sched.New(eng, topo, sched.DefaultConfig())
	s.Start()
	var b strings.Builder
	b.WriteString("Figure 1: scheduling domains of a 32-core, 4-node machine (from core 0)\n\n")
	b.WriteString(s.DescribeDomains(0))
	return b.String()
}

// Fig4 renders the experimental machine's topology (paper Figure 4 and
// Table 5).
func Fig4() string {
	var b strings.Builder
	topo := topology.Bulldozer8()
	b.WriteString("Figure 4 / Table 5: the 8-node AMD Bulldozer machine\n\n")
	b.WriteString(topo.String())
	b.WriteString("\none-hop neighbours:\n")
	for n := 0; n < topo.NumNodes(); n++ {
		fmt.Fprintf(&b, "  node %d: %v\n", n, topo.Neighbors(topology.NodeID(n)))
	}
	return b.String()
}

// Fig2Result bundles the Group Imbalance visualization (paper Figures
// 2a/2b/2c) and the §3.1 make/R completion times.
type Fig2Result struct {
	// BugSize is Figure 2a: runqueue sizes with the bug.
	BugSize *viz.Heatmap
	// BugLoad is Figure 2b: runqueue loads with the bug.
	BugLoad *viz.Heatmap
	// FixSize is Figure 2c: runqueue sizes with the fix.
	FixSize *viz.Heatmap
	// MakeBug/MakeFix are the make job's completion times (paper: fix
	// cuts make by 13% while R is unchanged).
	MakeBug, MakeFix sim.Time
	RBug, RFix       sim.Time
	// IdleNodesObserved counts nodes that averaged < 1 runnable thread
	// per core during the buggy run — the "two nodes whose cores run
	// either only one thread or no threads at all".
	IdleNodesObserved int
}

// Fig2 reproduces the make + 2xR experiment of §3.1 with traces.
func Fig2(opts Options) *Fig2Result {
	opts = opts.withDefaults()
	res := &Fig2Result{}
	run := func(fix bool) (*viz.Heatmap, *viz.Heatmap, sim.Time, sim.Time) {
		topo := topology.Bulldozer8()
		cfg := sched.DefaultConfig()
		cfg.Features.FixGroupImbalance = fix
		m := machine.New(topo, cfg, opts.Seed)
		rec := trace.NewRecorder(1 << 21)
		m.SetRecorder(rec)

		// Two R processes on different nodes (launched from their own
		// ttys) and one 64-thread make.
		workload.LaunchR(m, topo.CoresOfNode(0)[0], 30*sim.Second)
		workload.LaunchR(m, topo.CoresOfNode(4)[0], 30*sim.Second)
		mk := workload.DefaultMakeOpts()
		mk.Seed = opts.Seed
		mk.JobsPerThread = int(100 * opts.Scale)
		if mk.JobsPerThread < 5 {
			mk.JobsPerThread = 5
		}
		mk.SpawnCore = topo.CoresOfNode(2)[0]
		mkProc := workload.LaunchMake(m, mk)

		// Record a steady-state window while make is running.
		t0 := 50 * sim.Millisecond
		m.RunUntil(t0)
		rec.Start()
		m.Sched.EmitSnapshot()
		t1 := t0 + 150*sim.Millisecond
		m.RunUntil(t1)
		rec.Stop()
		end, _ := m.RunUntilDone(horizon, mkProc)
		if end < t1 {
			t1 = end
		}
		size := viz.RQSizeHeatmap(rec.Events(), topo.NumCores(), 160, t0, t1)
		load := viz.LoadHeatmap(rec.Events(), topo.NumCores(), 160, t0, t1)
		size.RowGroup = func(r int) int { return int(topo.NodeOf(topology.CoreID(r))) }
		load.RowGroup = size.RowGroup
		return size, load, end, 0
	}
	res.BugSize, res.BugLoad, res.MakeBug, res.RBug = run(false)
	res.FixSize, _, res.MakeFix, res.RFix = run(true)

	// Count nodes left underloaded in the buggy heatmap: nodes whose
	// cores averaged fewer than half a runnable thread — the "two nodes
	// whose cores run either only one thread or no threads at all"
	// (§3.1) host one R thread and otherwise idle, averaging ~1/8.
	topo := topology.Bulldozer8()
	for n := 0; n < topo.NumNodes(); n++ {
		total := 0.0
		cells := 0
		for _, c := range topo.CoresOfNode(topology.NodeID(n)) {
			for _, v := range res.BugSize.Values[c] {
				total += v
				cells++
			}
		}
		if cells > 0 && total/float64(cells) < 0.5 {
			res.IdleNodesObserved++
		}
	}
	return res
}

// Fig3Result bundles the Overload-on-Wakeup visualization (paper Figure 3).
type Fig3Result struct {
	// Heat is the runqueue-size heatmap during the TPC-H run: idle
	// (white) rows alongside rows with two threads.
	Heat *viz.Heatmap
	// WakeupsOnBusy/WakeupsOnIdle count wakeup placements (the bug puts
	// threads on busy cores while others idle).
	WakeupsOnBusy, WakeupsOnIdle uint64
	// WastedCoreTime integrates idle-while-work-waiting time.
	WastedCoreTime sim.Time
	// Episodes summarizes the idle-while-overloaded episodes — Figure
	// 3's recovery story: "invariant violations persisted for shorter
	// periods, on the order of hundreds of milliseconds, then
	// disappeared and reappeared again" (§4.1).
	Episodes viz.EpisodeStats
}

// Fig3 reproduces the TPC-H trace of §3.3 with autogroups disabled.
func Fig3(opts Options) *Fig3Result {
	opts = opts.withDefaults()
	topo := topology.Bulldozer8()
	cfg := sched.DefaultConfig() // all bugs
	m := machine.New(topo, cfg, opts.Seed)
	rec := trace.NewRecorder(1 << 21)
	m.SetRecorder(rec)
	db := workload.NewTPCH(m, workload.TPCHOpts{
		Containers: []int{32, 16, 16},
		Autogroups: false, // "we disabled autogroups in this experiment"
		Scale:      opts.Scale,
		Seed:       opts.Seed,
	})
	noise := workload.StartNoise(m, workload.DefaultNoiseOpts())
	defer noise.Stop()
	m.Run(50 * sim.Millisecond)
	rec.Start()
	m.Sched.EmitSnapshot()
	start := m.Eng.Now()
	db.RunAll(horizon)
	rec.Stop()
	end := m.Eng.Now()

	heat := viz.RQSizeHeatmap(rec.Events(), topo.NumCores(), 160, start, end)
	heat.RowGroup = func(r int) int { return int(topo.NodeOf(topology.CoreID(r))) }
	c := m.Sched.Counters()
	episodes := viz.Episodes(rec.Events(), topo.NumCores(), start, end)
	return &Fig3Result{
		Heat:           heat,
		WakeupsOnBusy:  c.WakeupsOnBusy,
		WakeupsOnIdle:  c.WakeupsOnIdle,
		WastedCoreTime: m.Sched.WastedCoreTime(),
		Episodes:       viz.AnalyzeEpisodes(episodes, end-start),
	}
}

// Fig5Result bundles the Missing Scheduling Domains visualization (paper
// Figure 5): which cores core 0 considers during load balancing.
type Fig5Result struct {
	// ChartBug/ChartFix are the considered-cores charts.
	ChartBug, ChartFix string
	// CoverageBug/CoverageFix are the union of cores considered by
	// core 0 across all balancing events.
	CoverageBug, CoverageFix int
}

// Fig5 runs a 16-thread application after a hotplug cycle and records the
// cores considered by core 0's load balancing, with and without the fix.
func Fig5(opts Options) *Fig5Result {
	opts = opts.withDefaults()
	run := func(fix bool) (string, int) {
		topo := topology.Bulldozer8()
		cfg := sched.DefaultConfig()
		cfg.Features.FixMissingDomains = fix
		m := machine.New(topo, cfg, opts.Seed)
		if err := m.DisableCore(63); err != nil {
			panic(err)
		}
		if err := m.EnableCore(63); err != nil {
			panic(err)
		}
		rec := trace.NewRecorder(1 << 20)
		m.SetRecorder(rec)
		// A 16-thread compute application forked on node 0.
		p := m.NewProc("app", machine.ProcOpts{})
		for i := 0; i < 16; i++ {
			p.SpawnOn(0, machine.NewProgram().Compute(5*sim.Second).Build(), machine.SpawnOpts{})
		}
		rec.Start()
		m.Run(200 * sim.Millisecond)
		rec.Stop()
		chart := viz.ConsideredChart(rec.Events(), 0, topo.NumCores(), 50)
		cov := viz.ConsideredCoverage(rec.Events(), 0, topo.NumCores())
		n := 0
		for _, v := range cov {
			if v {
				n++
			}
		}
		return chart, n
	}
	res := &Fig5Result{}
	res.ChartBug, res.CoverageBug = run(false)
	res.ChartFix, res.CoverageFix = run(true)
	return res
}
