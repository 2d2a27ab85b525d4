package sched

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestPeriodicBalanceTickAllocs pins the steady-state allocation budget
// of the tick path (accounting + preemption check + periodic balancing
// across every due domain level): after warmup it must stay at a small
// constant per tick period, independent of core count — the scratch
// buffers, per-core timers and domain cache make the common case
// allocation-free, with only amortized noise (runqueue pool growth,
// trace-free bookkeeping) remaining.
func TestPeriodicBalanceTickAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NOHZ = false // every core ticks: the worst case for the tick path
	e := newEnv(topology.Bulldozer8(), cfg)
	// An imbalanced, busy machine: plenty of balance work every tick.
	for i := 0; i < 24; i++ {
		e.hog("h", topology.CoreID(i%8), ThreadOpts{})
	}
	e.run(200 * sim.Millisecond) // warm up pools, caches, scratch buffers
	period := e.s.Config().TickPeriod
	avg := testing.AllocsPerRun(50, func() {
		e.run(period) // 64 core ticks plus their balance passes
	})
	// One tick period on this machine is 64 individual core ticks; a
	// handful of allocations across all of them is "small constant" —
	// the pre-optimization code allocated hundreds (groupStats, closure
	// and event per tick, per core).
	if avg > 16 {
		t.Fatalf("allocs per tick period = %.1f, want <= 16", avg)
	}
}

// TestHotplugDomainRebuildReusesCache: cycling the same core off and on
// must hit the domain cache (pointer swap), not reconstruct hierarchies,
// while still resetting the per-level balance bookkeeping. The cache
// also survives ApplyFeatures, so it must stay exact across fix
// switches: see checkApplyFeaturesMatchesFresh.
func TestHotplugDomainRebuildReusesCache(t *testing.T) {
	e := newEnv(topology.Bulldozer8(), DefaultConfig().WithFixes(AllFixes()))
	if err := e.s.DisableCPU(5); err != nil {
		t.Fatal(err)
	}
	if err := e.s.EnableCPU(5); err != nil {
		t.Fatal(err)
	}
	before := e.s.Domains(3)
	e.run(sim.Millisecond)
	if err := e.s.DisableCPU(5); err != nil {
		t.Fatal(err)
	}
	if err := e.s.EnableCPU(5); err != nil {
		t.Fatal(err)
	}
	after := e.s.Domains(3)
	if len(before) != len(after) {
		t.Fatalf("hierarchy depth changed across identical rebuilds: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("level %d rebuilt instead of cache-hit", i)
		}
	}
	// The cache holds one entry per distinct (online set, includeNUMA)
	// seen: full set (x2: with and without NUMA never both occur here,
	// so exactly the visited classes) and the set without core 5.
	if n := len(e.s.domainCache); n != 2 {
		t.Fatalf("domain cache has %d entries, want 2", n)
	}

	// The studied kernel plus one scheduler built with each single
	// lattice fix, all put through the same hotplug cycle.
	topo := topology.Bulldozer8()
	base := newEnv(topo, DefaultConfig())
	fixes := []Features{
		{FixGroupImbalance: true},
		{FixGroupConstruction: true},
		{FixOverloadWakeup: true},
		{FixMissingDomains: true},
	}
	built := make([]*Scheduler, len(fixes))
	for i, f := range fixes {
		built[i] = newEnv(topo, DefaultConfig().WithFixes(f)).s
	}
	checkApplyFeaturesMatchesFresh(t, "before hotplug", base, fixes, built)
	for _, s := range append([]*Scheduler{base.s}, built...) {
		if err := s.DisableCPU(5); err != nil {
			t.Fatal(err)
		}
		if err := s.EnableCPU(5); err != nil {
			t.Fatal(err)
		}
	}
	checkApplyFeaturesMatchesFresh(t, "after hotplug", base, fixes, built)
}

// checkApplyFeaturesMatchesFresh: Clone + ApplyFeatures(fixes[i]) on
// base must give every core the hierarchy, and the scheduler the
// counters, of built[i] (constructed with that fix), whatever the domain
// cache holds. Switching the clone back must then give base's own
// hierarchies: a gc-fixed cache entry is never served to a gc-buggy
// scheduler, nor the reverse. Fixes that leave construction alone must
// be cache hits, sharing base's Domain values.
func checkApplyFeaturesMatchesFresh(t *testing.T, stage string, base *testEnv, fixes []Features, built []*Scheduler) {
	t.Helper()
	same := func(what string, a, b *Scheduler) {
		t.Helper()
		for cpu := range a.cpus {
			id := topology.CoreID(cpu)
			if !domainsEqual(a.Domains(id), b.Domains(id)) {
				t.Fatalf("%s, %s: cpu %d %s want %s", stage, what, cpu, a.DescribeDomains(id), b.DescribeDomains(id))
			}
		}
		if a.Counters() != b.Counters() {
			t.Fatalf("%s, %s: counters %+v, want %+v", stage, what, a.Counters(), b.Counters())
		}
	}
	for i, f := range fixes {
		c := base.s.Clone(base.eng.Fork())
		c.ApplyFeatures(f)
		what := fmt.Sprintf("fix %+v", f)
		same(what, c, built[i])
		if !f.FixGroupConstruction && !f.FixMissingDomains {
			for cpu := range c.cpus {
				id := topology.CoreID(cpu)
				for lvl, d := range c.Domains(id) {
					if d != base.s.Domains(id)[lvl] {
						t.Fatalf("%s, %s: cpu %d level %d rebuilt instead of cache-hit", stage, what, cpu, lvl)
					}
				}
			}
		}
		c.ApplyFeatures(base.s.Config().Features)
		same(what+" and back", c, base.s)
	}
}

// TestOccupancyIncrementalMatchesRescan: the incrementally maintained
// idle/queued sums and occupancy masks must always equal a from-scratch
// rescan — checked after every event of the run and after each hotplug
// step.
func TestOccupancyIncrementalMatchesRescan(t *testing.T) {
	e := newEnv(topology.TwoNode(4), DefaultConfig())
	for i := 0; i < 12; i++ {
		e.hog("h", topology.CoreID(i%4), ThreadOpts{})
	}
	events := 0
	check := func(when string) {
		idle, queued := 0, 0
		var queuedMask, busyMask CPUSet
		for _, c := range e.s.cpus {
			if !c.online {
				continue
			}
			if c.idle() {
				idle++
			} else {
				busyMask.Set(c.id)
			}
			if q := c.rq.queued(); q > 0 {
				queued += q
				queuedMask.Set(c.id)
			}
		}
		if idle != e.s.curIdle || queued != e.s.curQueued {
			t.Fatalf("%s (event %d): incremental (idle=%d queued=%d) != rescan (idle=%d queued=%d)",
				when, events, e.s.curIdle, e.s.curQueued, idle, queued)
		}
		if !queuedMask.Equal(e.s.queuedMask) || !busyMask.Equal(e.s.busyMask) {
			t.Fatalf("%s (event %d): masks queued=%s busy=%s, rescan queued=%s busy=%s",
				when, events, e.s.queuedMask, e.s.busyMask, queuedMask, busyMask)
		}
	}
	// run steps the engine one event at a time up to d from now,
	// checking after each event.
	run := func(d sim.Time) {
		end := e.eng.Now() + d
		for at, ok := e.eng.NextEventAt(); ok && at <= end; at, ok = e.eng.NextEventAt() {
			e.eng.Step()
			events++
			check("during run")
		}
		e.eng.RunUntil(end)
	}
	check("after start")
	run(50 * sim.Millisecond)
	check("after balancing")
	if err := e.s.DisableCPU(2); err != nil {
		t.Fatal(err)
	}
	check("after disable")
	run(20 * sim.Millisecond)
	if err := e.s.EnableCPU(2); err != nil {
		t.Fatal(err)
	}
	check("after enable")
	run(20 * sim.Millisecond)
	check("after enable and run")
	if events == 0 {
		t.Fatal("no event checked")
	}
}
