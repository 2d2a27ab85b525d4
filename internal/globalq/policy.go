package globalq

import (
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file expresses the two §2.2 runqueue designs as machine-level
// scheduling disciplines, so the strawman is directly comparable to the
// CFS model in policy tournaments instead of living only in this
// package's analytic queueing model (globalq.go).
//
// Neither shim reproduces the synchronization tax — the simulated
// machine has no lock contention to model per context switch; that axis
// stays with RunOne/Experiment and the "globalq" campaign workload.
// What they do reproduce is each design's *placement* behaviour:
//
//   - SharedRunqueue: one logical queue that any idle core drains. The
//     hierarchical balancer is off (DisableBalance); instead, wakeups go
//     to the longest-idle core anywhere (else the shortest queue), and a
//     fast work-conservation sweep lets idle cores pull queued threads —
//     the "trivially work-conserving, nothing to balance" half of §2.2.
//   - PerCoreRunqueue: strictly static per-core queues. Threads are
//     distributed at fork and then never move: wakeups always return to
//     the previous core and the balancer is off — the pre-distributed
//     best case the analytic PerCoreQueue design assumes, minus the
//     rebalancing CFS layers on top. Any load imbalance is permanent,
//     which is exactly the behaviour tournaments should price.

// SweepEvery is the shared-queue work-conservation cadence: 1ms, the
// scheduler tick, so a stale placement survives at most one tick — far
// tighter than the 4ms balancer it replaces, as befits a design where
// dequeueing from the shared backlog is a constant-time pop.
const SweepEvery = sim.Millisecond

// SharedRunqueue emulates the shared global runqueue on a machine-level
// scheduler. Attach with AttachShared; pair with a sched.Config that has
// DisableBalance set (SharedConfig) so the hierarchical balancer does
// not compete with the discipline.
type SharedRunqueue struct {
	s       *sched.Scheduler
	stopped bool
	sweepFn func()            // sweep, bound once: rescheduling allocates nothing
	online  []topology.CoreID // sweep's scratch: the online cores, ascending

	// Steals counts work-conservation pulls by idle cores.
	Steals uint64
	// Sweeps counts sweep passes.
	Sweeps uint64
}

// AttachShared installs the shared-queue discipline on s and starts its
// work-conservation sweep.
func AttachShared(s *sched.Scheduler) *SharedRunqueue {
	g := &SharedRunqueue{s: s}
	g.sweepFn = g.sweep
	s.SetPlacementPolicy(g)
	s.Engine().After(SweepEvery, g.sweepFn)
	return g
}

// Detach removes the discipline; the sweep stops at its next firing.
func (g *SharedRunqueue) Detach() {
	g.stopped = true
	g.s.SetPlacementPolicy(nil)
}

// PlaceWakeup implements sched.PlacementPolicy: a waking thread goes to
// the next free "executor" of the shared queue — the longest-idle
// allowed core, else the allowed core with the shortest queue (lowest id
// on ties). There is no locality term at all: a shared queue has no
// notion of a thread's home core.
func (g *SharedRunqueue) PlaceWakeup(t *sched.Thread, waker *sched.Thread,
	prev topology.CoreID, allowed sched.CPUSet) (topology.CoreID, bool) {
	if cpu, ok := g.s.LongestIdle(allowed); ok {
		return cpu, true
	}
	best := topology.CoreID(-1)
	bestQ := 0
	allowed.ForEach(func(c topology.CoreID) {
		if q := g.s.NrRunning(c); best < 0 || q < bestQ {
			best, bestQ = c, q
		}
	})
	return best, best >= 0
}

// sweep restores work conservation: every idle core pulls one thread
// from the longest queue it may steal from. With a real shared queue an
// idle core would dequeue immediately; the sweep bounds that gap to
// SweepEvery of virtual time.
func (g *SharedRunqueue) sweep() {
	if g.stopped {
		return
	}
	g.Sweeps++
	g.online = g.s.OnlineSet().AppendCores(g.online[:0])
	online := g.online
	for _, idle := range online {
		if !g.s.IsIdle(idle) {
			continue
		}
		src := topology.CoreID(-1)
		bestQ := 0
		for _, busy := range online {
			if busy == idle {
				continue
			}
			if q := g.s.Queued(busy); q > bestQ && g.s.CanSteal(idle, busy) {
				src, bestQ = busy, q
			}
		}
		if src >= 0 && g.s.StealOne(idle, src) {
			g.Steals++
		}
	}
	g.s.Engine().After(SweepEvery, g.sweepFn)
}

// PerCoreRunqueue emulates strictly static per-core runqueues: wakeups
// always return to the previous core. Pair with PerCoreConfig, which
// disables the balancer, so queue membership is fixed at fork time.
type PerCoreRunqueue struct{ s *sched.Scheduler }

// AttachPerCore installs the static per-core discipline on s.
func AttachPerCore(s *sched.Scheduler) *PerCoreRunqueue {
	g := &PerCoreRunqueue{s: s}
	s.SetPlacementPolicy(g)
	return g
}

// Detach removes the discipline.
func (g *PerCoreRunqueue) Detach() { g.s.SetPlacementPolicy(nil) }

// PlaceWakeup implements sched.PlacementPolicy: the thread's queue is
// its previous core, unconditionally. (The caller guarantees prev is in
// allowed, falling back to the first allowed core when hotplug removed
// it — the one case where a static queue must move.)
func (g *PerCoreRunqueue) PlaceWakeup(t *sched.Thread, waker *sched.Thread,
	prev topology.CoreID, allowed sched.CPUSet) (topology.CoreID, bool) {
	return prev, true
}

// SharedConfig is the scheduler configuration the shared-queue
// discipline runs under: kernel-default tunables with the hierarchical
// balancer and NOHZ machinery off (the discipline replaces both).
func SharedConfig() sched.Config {
	c := sched.DefaultConfig()
	c.DisableBalance = true
	c.NOHZ = false
	return c
}

// PerCoreConfig is the static per-core configuration: like SharedConfig
// but the absence of balancing is the point rather than a replacement —
// nothing moves a thread off the queue it forked onto.
func PerCoreConfig() sched.Config {
	return SharedConfig()
}
