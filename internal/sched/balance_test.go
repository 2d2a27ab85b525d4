package sched

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// groupImbalanceScenario builds the §3.1 situation on a two-node machine:
// two high-load single-thread processes pinned-by-history to node 0's
// first cores, and a multi-thread autogrouped process crowded on node 1.
// With the bug, node 0's remaining cores stay idle: node 0's *average*
// load (dominated by the high-load threads) exceeds node 1's, so its idle
// cores refuse to steal. With the fix (minimum-load comparison) they pull.
func groupImbalanceScenario(t *testing.T, fix bool) (*testEnv, []*Thread) {
	t.Helper()
	cfg := DefaultConfig()
	if fix {
		cfg.Features |= FixGroupImbalance
	}
	e := newEnv(topology.TwoNode(4), cfg)
	// Two "R-like" high-load processes, each alone in its autogroup.
	for i := 0; i < 2; i++ {
		g := e.s.NewGroup("R")
		e.hog("R", topology.CoreID(i), ThreadOpts{Group: g})
	}
	// A 6-thread autogrouped process stacked on node 1: each thread's
	// load is divided by 6, so node 1's average load stays below node 0's
	// even though node 1's cores are oversubscribed. Six crowd threads
	// plus two R threads = 8 threads on 8 cores: perfectly balanceable.
	g := e.s.NewGroup("make")
	var crowd []*Thread
	for i := 0; i < 6; i++ {
		crowd = append(crowd, e.hog("m", topology.CoreID(4+i%4), ThreadOpts{Group: g}))
	}
	return e, crowd
}

func TestGroupImbalanceBugLeavesCoresIdle(t *testing.T) {
	e, _ := groupImbalanceScenario(t, false)
	e.run(300 * sim.Millisecond)
	// The bug: cpus 2 and 3 (node 0) stay idle while node 1's cores run
	// two threads each.
	idleOnNode0 := 0
	for _, cpu := range []topology.CoreID{2, 3} {
		if e.s.NrRunning(cpu) == 0 {
			idleOnNode0++
		}
	}
	if idleOnNode0 == 0 {
		t.Fatal("expected idle cores on node 0 with the Group Imbalance bug")
	}
	overloaded := 0
	for cpu := topology.CoreID(4); cpu < 8; cpu++ {
		if e.s.NrRunning(cpu) >= 2 {
			overloaded++
		}
	}
	if overloaded == 0 {
		t.Fatal("expected overloaded cores on node 1 with the bug")
	}
	if r := e.s.WastedRatio(0); r < 0.10 {
		t.Fatalf("wasted ratio = %.3f, expected substantial waste with the bug", r)
	}
}

func TestGroupImbalanceFixBalances(t *testing.T) {
	e, crowd := groupImbalanceScenario(t, true)
	e.run(300 * sim.Millisecond)
	for cpu := topology.CoreID(0); cpu < 8; cpu++ {
		if e.s.NrRunning(cpu) != 1 {
			t.Fatalf("cpu %d nr_running = %d with fix, want 1", cpu, e.s.NrRunning(cpu))
		}
	}
	// The crowd must have spread onto node 0.
	onNode0 := 0
	for _, th := range crowd {
		if th.CPU() < 4 {
			onNode0++
		}
	}
	if onNode0 != 2 {
		t.Fatalf("crowd threads on node 0 = %d, want 2", onNode0)
	}
}

// TestGroupImbalanceFixSpeedsUpCrowd measures the §3.1 effect on progress:
// the crowded process gets substantially more CPU with the fix.
func TestGroupImbalanceFixSpeedsUpCrowd(t *testing.T) {
	sum := func(fix bool) sim.Time {
		e, crowd := groupImbalanceScenario(t, fix)
		e.run(300 * sim.Millisecond)
		var total sim.Time
		for _, th := range crowd {
			total += th.SumExec()
		}
		return total
	}
	buggy, fixed := sum(false), sum(true)
	if float64(fixed) < 1.2*float64(buggy) {
		t.Fatalf("fix should speed up the crowded process: buggy=%v fixed=%v", buggy, fixed)
	}
}

// TestSchedGroupConstructionBug reproduces §3.2: an application pinned to
// two nodes that are two hops apart cannot spread across them, because both
// nodes appear together in every scheduling group.
func schedGroupConstructionScenario(t *testing.T, fix bool) *testEnv {
	t.Helper()
	cfg := DefaultConfig()
	if fix {
		cfg.Features |= FixGroupConstruction
	}
	e := newEnv(topology.Bulldozer8(), cfg)
	topo := e.s.Topology()
	// Pin to nodes 1 and 2 (two hops apart); spawn all threads on node 1,
	// as a forking application would (§3.2).
	var aff CPUSet
	for _, c := range topo.CoresOfNode(1) {
		aff.Set(c)
	}
	for _, c := range topo.CoresOfNode(2) {
		aff.Set(c)
	}
	for i := 0; i < 16; i++ {
		e.hog("nas", topo.CoresOfNode(1)[i%8], ThreadOpts{Affinity: aff})
	}
	return e
}

func TestSchedGroupConstructionBugConfinesToOneNode(t *testing.T) {
	e := schedGroupConstructionScenario(t, false)
	e.run(300 * sim.Millisecond)
	topo := e.s.Topology()
	node2Running := 0
	for _, c := range topo.CoresOfNode(2) {
		node2Running += e.s.NrRunning(c)
	}
	if node2Running != 0 {
		t.Fatalf("bug present but %d threads reached node 2", node2Running)
	}
	for _, c := range topo.CoresOfNode(1) {
		if e.s.NrRunning(c) != 2 {
			t.Fatalf("node 1 core %d nr_running = %d, want 2", c, e.s.NrRunning(c))
		}
	}
}

func TestSchedGroupConstructionFixSpreads(t *testing.T) {
	e := schedGroupConstructionScenario(t, true)
	e.run(300 * sim.Millisecond)
	topo := e.s.Topology()
	for _, node := range []topology.NodeID{1, 2} {
		for _, c := range topo.CoresOfNode(node) {
			if e.s.NrRunning(c) != 1 {
				t.Fatalf("node %d core %d nr_running = %d, want 1", node, c, e.s.NrRunning(c))
			}
		}
	}
}

// TestMissingSchedDomainsConfinesToNode reproduces §3.4 dynamically: after
// a disable/enable cycle, new threads stay on their parent's node.
func missingDomainsScenario(t *testing.T, fix bool) *testEnv {
	t.Helper()
	cfg := DefaultConfig()
	if fix {
		cfg.Features |= FixMissingDomains
	}
	e := newEnv(topology.Bulldozer8(), cfg)
	e.eng.After(sim.Millisecond, func() {
		if err := e.s.DisableCPU(63); err != nil {
			t.Errorf("disable: %v", err)
		}
	})
	e.eng.After(2*sim.Millisecond, func() {
		if err := e.s.EnableCPU(63); err != nil {
			t.Errorf("enable: %v", err)
		}
	})
	e.run(5 * sim.Millisecond)
	// Launch a 16-thread app, all forked on node 0.
	for i := 0; i < 16; i++ {
		e.hog("app", topology.CoreID(i%8), ThreadOpts{})
	}
	return e
}

func TestMissingSchedDomainsConfinesToNode(t *testing.T) {
	e := missingDomainsScenario(t, false)
	e.run(300 * sim.Millisecond)
	topo := e.s.Topology()
	offNode0 := 0
	for cpu := topology.CoreID(8); cpu < 64; cpu++ {
		offNode0 += e.s.NrRunning(cpu)
	}
	if offNode0 != 0 {
		t.Fatalf("missing-domains bug present but %d threads left node 0", offNode0)
	}
	for _, c := range topo.CoresOfNode(0) {
		if e.s.NrRunning(c) != 2 {
			t.Fatalf("node 0 core %d nr_running = %d, want 2", c, e.s.NrRunning(c))
		}
	}
}

func TestMissingSchedDomainsFixSpreads(t *testing.T) {
	e := missingDomainsScenario(t, true)
	e.run(300 * sim.Millisecond)
	total := 0
	offNode0 := 0
	for cpu := topology.CoreID(0); cpu < 64; cpu++ {
		nr := e.s.NrRunning(cpu)
		total += nr
		if cpu >= 8 {
			offNode0 += nr
		}
	}
	if total != 16 {
		t.Fatalf("threads lost: total = %d", total)
	}
	if offNode0 != 8 {
		t.Fatalf("with fix, %d threads off node 0, want 8", offNode0)
	}
}

func TestPinnedFailureMarksGroupImbalanced(t *testing.T) {
	// After a failed steal due to tasksets, the source rq is flagged so
	// higher levels treat its group as imbalanced (Algorithm 1 line 13).
	e := newEnv(topology.SMP(2), DefaultConfig())
	e.hog("p1", 0, ThreadOpts{Affinity: NewCPUSet(0)})
	e.hog("p2", 0, ThreadOpts{Affinity: NewCPUSet(0)})
	e.run(100 * sim.Millisecond)
	if !e.s.cpus[0].pinnedFailure {
		t.Fatal("pinnedFailure flag not set after taskset-blocked balance")
	}
}

func TestBalanceIntervalBusyVsIdle(t *testing.T) {
	e := newEnv(topology.SMP(2), DefaultConfig())
	d := &Domain{Interval: 8 * sim.Millisecond}
	busyCPU := e.s.cpus[0]
	idleCPU := e.s.cpus[1]
	// Make cpu0 busy.
	e.hog("h", 0, ThreadOpts{Affinity: NewCPUSet(0)})
	e.run(5 * sim.Millisecond)
	if got := e.s.balanceInterval(busyCPU, d); got != 8*sim.Millisecond {
		t.Fatalf("busy interval = %v", got)
	}
	if got := e.s.balanceInterval(idleCPU, d); got != e.s.cfg.TickPeriod {
		t.Fatalf("idle interval = %v", got)
	}
}

// BenchmarkLoadBalance times one balance pass of core 0 of bulldozer8 at
// each of its domain levels. In "idle" one core, in every span, runs a
// thread and nothing is queued, so the pass takes the NoBusiest fast
// path. In "overloaded" three threads pinned to one core of a group
// other than core 0's local one queue there, so the pass computes every
// group's statistics, picks that group and moves nothing. Every
// iteration does the same work at one instant: the first call warms the
// load caches and scratch buffers, and no state changes after it.
func BenchmarkLoadBalance(b *testing.B) {
	for _, level := range []string{"SMT", "NODE", "NUMA-1", "NUMA-2"} {
		for _, state := range []string{"idle", "overloaded"} {
			b.Run(level+"/"+state, func(b *testing.B) {
				e := newEnv(topology.Bulldozer8(), DefaultConfig())
				c := e.s.cpus[0]
				li := -1
				for i, d := range c.domains {
					if d.Name == level {
						li = i
					}
				}
				if li < 0 {
					b.Fatalf("core 0 has no %s domain", level)
				}
				d := c.domains[li]
				if state == "idle" {
					e.hog("busy", 1, ThreadOpts{Affinity: NewCPUSet(1)})
				} else {
					away := awayCore(d)
					for i := 0; i < 3; i++ {
						e.hog("pinned", away, ThreadOpts{Affinity: NewCPUSet(away)})
					}
				}
				e.run(sim.Millisecond)
				if fast := e.s.noneStealable(d); fast != (state == "idle") {
					b.Fatalf("noneStealable = %v in the %s state", fast, state)
				}
				e.s.loadBalance(c, d, li, trace.OpPeriodicBalance)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if e.s.loadBalance(c, d, li, trace.OpPeriodicBalance) != 0 {
						b.Fatal("the pass moved a thread")
					}
				}
			})
		}
	}
}

// awayCore returns the first core of a group of d other than the local
// one that the local group does not contain.
func awayCore(d *Domain) topology.CoreID {
	for i, g := range d.Groups {
		if i == d.local {
			continue
		}
		for _, id := range g.Cores() {
			if !d.Groups[d.local].Has(id) {
				return id
			}
		}
	}
	panic("no core outside the local group")
}
