// Quickstart: build a simulated NUMA machine, run a small parallel
// program, and inspect where threads ran and how fairly CPU time was
// divided.
package main

import (
	"fmt"

	schedsim "repro"
)

func main() {
	// A 2-node, 8-core machine running the kernel the paper studied
	// (all four bugs present). Set cfg.Features to schedsim.AllFixes (or
	// to single fixes such as schedsim.FixGroupImbalance) to run the
	// repaired scheduler instead.
	cfg := schedsim.DefaultConfig()
	m := schedsim.NewMachine(schedsim.TwoNode(4), cfg, 1)

	// One process with 8 compute threads, all forked on core 0 — the
	// load balancer must spread them across both nodes.
	p := m.NewProc("app", schedsim.ProcOpts{})
	prog := schedsim.NewProgram().
		Compute(20 * schedsim.Millisecond).
		Sleep(2 * schedsim.Millisecond). // a little I/O
		Compute(20 * schedsim.Millisecond).
		Build()
	for i := 0; i < 8; i++ {
		p.SpawnOn(0, prog, schedsim.SpawnOpts{})
	}

	end, ok := m.RunUntilDone(schedsim.Second, p)
	fmt.Printf("finished=%v at %v (ideal: ~42ms)\n\n", ok, end)

	fmt.Println("thread placement and CPU time:")
	for _, th := range p.Threads() {
		fmt.Printf("  thread %2d: last core %2d (node %d), ran %-8v migrations %d\n",
			th.T.ID(), th.T.CPU(), m.Topo.NodeOf(th.T.CPU()), th.T.SumExec(), th.T.Migrations())
	}

	c := m.Sched.Counters()
	fmt.Printf("\nscheduler: %d switches, %d migrations, %d balance calls\n",
		c.Switches, c.Migrations, c.BalanceCalls)
	fmt.Printf("wasted core time (idle while work waited): %v\n", m.Sched.WastedCoreTime())
}
