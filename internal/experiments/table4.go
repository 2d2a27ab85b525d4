package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// LuRResult is the §3.1 lu + 4xR experiment: with the Group Imbalance bug
// lu crowds away from the R nodes and its spin synchronization collapses
// ("lu ran 13x faster after fixing the Group Imbalance bug").
type LuRResult struct {
	WithBug  sim.Time
	Fixed    sim.Time
	Speedup  float64
	Complete bool
}

// GroupImbalanceLU runs lu (60 threads) against four single-threaded R
// processes, with and without the Group Imbalance fix.
func GroupImbalanceLU(opts Options) LuRResult {
	opts = opts.withDefaults()
	run := func(fix bool) (sim.Time, bool) {
		topo := topology.Bulldozer8()
		cfg := sched.DefaultConfig()
		cfg.Features.FixGroupImbalance = fix
		m := machine.New(topo, cfg, opts.Seed)
		// Four R processes on four distinct nodes, each its own tty.
		for i := 0; i < 4; i++ {
			workload.LaunchR(m, topo.CoresOfNode(topology.NodeID(2 * i))[0], 100*sim.Second)
		}
		m.Run(20 * sim.Millisecond)
		lu, ok := workload.NASAppByName("lu")
		if !ok {
			panic("lu missing from suite")
		}
		p := lu.Launch(m, workload.NASLaunchOpts{
			Threads:   60,
			SpawnCore: topo.CoresOfNode(1)[0],
			Seed:      opts.Seed,
			Scale:     opts.Scale,
		})
		start := m.Eng.Now()
		end, done := m.RunUntilDone(start+horizon, p)
		return end - start, done
	}
	type res struct {
		t  sim.Time
		ok bool
	}
	runs := campaign.ForEach(2, 0, func(i int) res {
		t, ok := run(i == 1)
		return res{t, ok}
	})
	bug, fixed := runs[0], runs[1]
	return LuRResult{
		WithBug:  bug.t,
		Fixed:    fixed.t,
		Speedup:  stats.Speedup(bug.t.Seconds(), fixed.t.Seconds()),
		Complete: bug.ok && fixed.ok,
	}
}

// Table4Row summarizes one bug, as in the paper's Table 4.
type Table4Row struct {
	Name          string
	Description   string
	KernelVersion string
	Impacted      string
	MaxImpact     string
}

// Table4 reproduces the paper's Table 4 by taking the maximum measured
// impact of each bug from this reproduction's own experiments.
func Table4(t1 []NASRow, t2 []Table2Row, t3 []NASRow, lur LuRResult) []Table4Row {
	maxSpeedup1 := 0.0
	for _, r := range t1 {
		if r.Speedup > maxSpeedup1 {
			maxSpeedup1 = r.Speedup
		}
	}
	maxSpeedup3 := 0.0
	for _, r := range t3 {
		if r.Speedup > maxSpeedup3 {
			maxSpeedup3 = r.Speedup
		}
	}
	oow := 0.0
	for _, r := range t2 {
		if r.Config == "Overload-on-Wakeup" && r.Q18Pct < oow {
			oow = r.Q18Pct
		}
	}
	return []Table4Row{
		{
			Name: "Group Imbalance",
			Description: "When launching multiple applications with different " +
				"thread counts, some CPUs are idle while other CPUs are overloaded.",
			KernelVersion: "2.6.38+",
			Impacted:      "All",
			MaxImpact:     fmt.Sprintf("%.0fx", lur.Speedup),
		},
		{
			Name:          "Scheduling Group Construction",
			Description:   "No load balancing between nodes that are 2-hops apart.",
			KernelVersion: "3.9+",
			Impacted:      "All",
			MaxImpact:     fmt.Sprintf("%.0fx", maxSpeedup1),
		},
		{
			Name:          "Overload-on-Wakeup",
			Description:   "Threads wake up on overloaded cores while some other cores are idle.",
			KernelVersion: "2.6.32+",
			Impacted:      "Applications that sleep or wait",
			MaxImpact:     fmt.Sprintf("%.0f%%", -oow),
		},
		{
			Name:          "Missing Scheduling Domains",
			Description:   "The load is not balanced between NUMA nodes.",
			KernelVersion: "3.19+",
			Impacted:      "All",
			MaxImpact:     fmt.Sprintf("%.0fx", maxSpeedup3),
		},
	}
}

// FormatTable4 renders the summary table.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: bugs found in the scheduler using our tools\n")
	b.WriteString("(maximum impact measured by this reproduction)\n\n")
	fmt.Fprintf(&b, "%-30s %-9s %-32s %s\n", "Name", "Kernels", "Impacted applications", "Max impact")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %-9s %-32s %s\n", r.Name, r.KernelVersion, r.Impacted, r.MaxImpact)
		fmt.Fprintf(&b, "    %s\n", r.Description)
	}
	return b.String()
}

// Table5 renders the hardware description (paper Table 5).
func Table5() string {
	var b strings.Builder
	b.WriteString("Table 5: hardware of our AMD Bulldozer machine\n\n")
	b.WriteString(topology.Bulldozer8().String())
	return b.String()
}
