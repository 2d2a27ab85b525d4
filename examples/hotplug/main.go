// Missing Scheduling Domains demo (§3.4 / Table 3 / Figure 5): disable
// and re-enable a core, launch a parallel application, and watch the
// online sanity checker (§4.1) catch the work-conservation violation that
// results — threads confined to one node while seven others idle.
package main

import (
	"fmt"

	schedsim "repro"
)

func run(fix bool) {
	topo := schedsim.Bulldozer8()
	cfg := schedsim.DefaultConfig()
	if fix {
		cfg.Features = schedsim.FixMissingDomains
	}
	m := schedsim.NewMachine(topo, cfg, 42)

	// The /proc hotplug cycle that triggers the bug.
	if err := m.DisableCore(63); err != nil {
		panic(err)
	}
	if err := m.EnableCore(63); err != nil {
		panic(err)
	}

	// Attach the sanity checker: check every 200ms of virtual time,
	// confirm violations that persist 100ms.
	chk := schedsim.NewChecker(m.Sched, nil, schedsim.CheckerConfig{S: 200 * schedsim.Millisecond})
	chk.Start()

	// A 32-thread compute job forked on node 0.
	ep, _ := schedsim.NASAppByName("ep")
	p := ep.Launch(m, schedsim.NASLaunchOpts{Threads: 32, SpawnCore: 0, Seed: 42})
	end, _ := m.RunUntilDone(30*schedsim.Second, p)

	// Where did the threads run?
	perNode := map[schedsim.NodeID]schedsim.Time{}
	for _, th := range p.Threads() {
		perNode[topo.NodeOf(th.T.CPU())] += th.T.SumExec()
	}
	label := "with Missing Scheduling Domains bug"
	if fix {
		label = "with fix"
	}
	fmt.Printf("=== %s ===\n", label)
	fmt.Printf("finished at %v; sanity checker confirmed %d violations (%d transients)\n",
		end, len(chk.Violations()), chk.Transients())
	for n := schedsim.NodeID(0); int(n) < topo.NumNodes(); n++ {
		fmt.Printf("  node %d CPU time: %v\n", n, perNode[n])
	}
	if len(chk.Violations()) > 0 {
		fmt.Printf("  first report: %s\n", chk.Violations()[0])
	}
	fmt.Println()
}

func main() {
	run(false)
	run(true)
}
