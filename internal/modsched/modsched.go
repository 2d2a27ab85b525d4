// Package modsched implements the scheduler architecture the paper
// proposes in §5 ("Lessons Learned") as future work:
//
//	"We envision a scheduler that is a collection of modules: the core
//	module and optimization modules. ... The core module embodies the
//	very basic function of the scheduler: assigning runnable threads to
//	idle cores and sharing the cycles among them in some fair fashion.
//	The optimization modules suggest specific enhancements to the basic
//	algorithm. ... The core module should be able to take suggestions
//	from optimization modules and to act on them whenever feasible,
//	while always maintaining the basic invariants, such as not letting
//	cores sit idle while there are runnable threads."
//
// The CoreModule attaches to a sched.Scheduler in two places:
//
//   - wakeup placement: optimization modules propose cores (cache
//     affinity, load spreading, NUMA locality); the core module accepts
//     the highest-priority *feasible* suggestion — one that does not park
//     a waking thread on a busy core while idle cores exist;
//   - invariant enforcement: a periodic sweep restores work conservation
//     directly (steal one thread to any long-idle core) no matter what
//     the hierarchical balancer believes, which makes the system robust
//     even against balancing bugs like Missing Scheduling Domains.
//
// The point of this package, like the paper's, is architectural: the
// Overload-on-Wakeup bug cannot exist here, because the cache-affinity
// heuristic is a *suggestion* that the invariant always overrides.
package modsched

import (
	"fmt"
	"strings"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// View is the read-only system state modules consult when making
// suggestions.
type View interface {
	NrRunning(c topology.CoreID) int
	CPULoad(c topology.CoreID) float64
	IsIdle(c topology.CoreID) bool
	OnlineCPUs() []topology.CoreID
	Topology() *topology.Topology
}

// Module is one optimization module: it may suggest a wakeup placement.
// Returning ok=false abstains.
type Module interface {
	Name() string
	SuggestWakeup(v View, t *sched.Thread, waker *sched.Thread, prev topology.CoreID,
		allowed sched.CPUSet) (topology.CoreID, bool)
}

// Config tunes the core module.
type Config struct {
	// EnforceEvery is the cadence of the invariant sweep (default 4ms,
	// the balancer's own period).
	EnforceEvery sim.Time
	// MaxStealsPerSweep bounds migrations per sweep (default 8).
	MaxStealsPerSweep int
}

func (c Config) withDefaults() Config {
	if c.EnforceEvery == 0 {
		c.EnforceEvery = 4 * sim.Millisecond
	}
	if c.MaxStealsPerSweep == 0 {
		c.MaxStealsPerSweep = 8
	}
	return c
}

// CoreModule is the paper's core module: it owns the invariant and
// arbitrates module suggestions.
type CoreModule struct {
	s       *sched.Scheduler
	cfg     Config
	modules []Module
	stopped bool
	sweepFn func()            // sweep, bound once: rescheduling allocates nothing
	online  []topology.CoreID // sweep's scratch: the online cores, ascending

	// Stats per module.
	accepted   map[string]uint64
	overridden map[string]uint64
	// EnforcementSteals counts invariant-sweep migrations.
	EnforcementSteals uint64
	Sweeps            uint64
}

// Attach installs the core module on s with the given optimization
// modules (earlier modules have higher priority) and starts the
// enforcement sweep.
func Attach(s *sched.Scheduler, cfg Config, modules ...Module) *CoreModule {
	cm := &CoreModule{
		s:          s,
		cfg:        cfg.withDefaults(),
		modules:    modules,
		accepted:   map[string]uint64{},
		overridden: map[string]uint64{},
	}
	cm.sweepFn = cm.sweep
	s.SetPlacementPolicy(cm)
	s.Engine().After(cm.cfg.EnforceEvery, cm.sweepFn)
	return cm
}

// Detach removes the core module from the scheduler and stops sweeping.
func (cm *CoreModule) Detach() {
	cm.stopped = true
	cm.s.SetPlacementPolicy(nil)
}

// Accepted returns how many suggestions of the named module were applied.
func (cm *CoreModule) Accepted(module string) uint64 { return cm.accepted[module] }

// Overridden returns how many suggestions of the named module were
// rejected because they would have violated the invariant.
func (cm *CoreModule) Overridden(module string) uint64 { return cm.overridden[module] }

// PlaceWakeup implements sched.PlacementPolicy: take the first feasible
// module suggestion; otherwise fall back to the core placement (prev if
// idle, else any idle allowed core, else prev — plain work conservation
// with no optimization).
func (cm *CoreModule) PlaceWakeup(t *sched.Thread, waker *sched.Thread,
	prev topology.CoreID, allowed sched.CPUSet) (topology.CoreID, bool) {
	idleAvailable := cm.anyIdleAllowed(allowed)
	for _, mod := range cm.modules {
		cpu, ok := mod.SuggestWakeup(cm.s, t, waker, prev, allowed)
		if !ok || !allowed.Has(cpu) {
			continue
		}
		// Feasibility: a suggestion may not park the thread on a busy
		// core while an idle allowed core exists. This single check is
		// what makes Overload-on-Wakeup impossible by construction.
		if idleAvailable && !cm.s.IsIdle(cpu) {
			cm.overridden[mod.Name()]++
			continue
		}
		cm.accepted[mod.Name()]++
		return cpu, true
	}
	// Core placement.
	if cm.s.IsIdle(prev) {
		return prev, true
	}
	if cpu, ok := cm.firstIdleAllowed(allowed); ok {
		return cpu, true
	}
	return prev, true
}

func (cm *CoreModule) anyIdleAllowed(allowed sched.CPUSet) bool {
	_, ok := cm.firstIdleAllowed(allowed)
	return ok
}

func (cm *CoreModule) firstIdleAllowed(allowed sched.CPUSet) (topology.CoreID, bool) {
	found := topology.CoreID(-1)
	allowed.ForEach(func(c topology.CoreID) {
		if found < 0 && cm.s.IsIdle(c) {
			found = c
		}
	})
	return found, found >= 0
}

// sweep is the invariant enforcement: every idle core with stealable work
// anywhere pulls one thread, bypassing the hierarchical balancer
// entirely. Short-lived imbalances self-heal before the next sweep; long
// ones cannot survive it.
func (cm *CoreModule) sweep() {
	if cm.stopped {
		return
	}
	cm.Sweeps++
	cm.online = cm.s.OnlineSet().AppendCores(cm.online[:0])
	online := cm.online
	steals := 0
	for _, idle := range online {
		if steals >= cm.cfg.MaxStealsPerSweep {
			break
		}
		if !cm.s.IsIdle(idle) {
			continue
		}
		// Steal from the most loaded core with queued work.
		var src topology.CoreID = -1
		bestLoad := -1.0
		for _, busy := range online {
			if busy == idle || cm.s.Queued(busy) == 0 || !cm.s.CanSteal(idle, busy) {
				continue
			}
			if l := cm.s.CPULoad(busy); l > bestLoad {
				bestLoad = l
				src = busy
			}
		}
		if src >= 0 && cm.s.StealOne(idle, src) {
			cm.EnforcementSteals++
			steals++
		}
	}
	cm.s.Engine().After(cm.cfg.EnforceEvery, cm.sweepFn)
}

// String reports per-module acceptance statistics.
func (cm *CoreModule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core module: %d sweeps, %d enforcement steals\n", cm.Sweeps, cm.EnforcementSteals)
	for _, m := range cm.modules {
		fmt.Fprintf(&b, "  %-16s accepted=%d overridden=%d\n",
			m.Name(), cm.accepted[m.Name()], cm.overridden[m.Name()])
	}
	return b.String()
}
