package policy

import (
	"repro/internal/sched"
	"repro/internal/topology"
)

// The placement-policy variants: whole-wakeup-path replacements from
// the scheduler-taxonomy axes (locality vs balance, greedy vs
// affinity). Each is a sched.PlacementPolicy installed via the Attach
// hook; the scheduler consults it before its own wakeup path, so the
// variant owns every placement decision. All three run on the fully
// fixed balancer (sched.AllFixes), isolating the placement axis: a
// tournament row comparing them against "fixed" differs only in where
// wakeups land.

// attachPlacement adapts a PlacementPolicy constructor into a
// Policy.Attach hook.
func attachPlacement(build func(s *sched.Scheduler) sched.PlacementPolicy) func(*sched.Scheduler) func() {
	return func(s *sched.Scheduler) func() {
		s.SetPlacementPolicy(build(s))
		return func() { s.SetPlacementPolicy(nil) }
	}
}

// fixedConfig is the fully fixed kernel the placement variants run on.
func fixedConfig() sched.Config {
	return sched.DefaultConfig().WithFixes(sched.AllFixes)
}

// greedyIdlest is work-stealing-flavoured greedy placement: always the
// longest-idle allowed core, anywhere on the machine; when nothing is
// idle, the least-loaded allowed core. Maximally work-conserving and
// maximally locality-blind — the opposite corner from affinityStrict.
type greedyIdlest struct{ s *sched.Scheduler }

func (g greedyIdlest) PlaceWakeup(t *sched.Thread, waker *sched.Thread,
	prev topology.CoreID, allowed sched.CPUSet) (topology.CoreID, bool) {
	if cpu, ok := g.s.LongestIdle(allowed); ok {
		return cpu, true
	}
	return leastLoaded(g.s, allowed)
}

// numaBlind spreads by load alone: always the least-loaded allowed
// core, with no locality or idle-duration term — the LoadSpread
// heuristic with the §5 feasibility arbitration removed. It never
// parks a wakeup on a busy core while an idle one exists (the idle
// core's load is lower), but it also never pays anything for staying
// near the thread's cache or memory node.
type numaBlind struct{ s *sched.Scheduler }

func (n numaBlind) PlaceWakeup(t *sched.Thread, waker *sched.Thread,
	prev topology.CoreID, allowed sched.CPUSet) (topology.CoreID, bool) {
	return leastLoaded(n.s, allowed)
}

// affinityStrict is the cache-affinity heuristic made unconditional:
// a thread always wakes on the core it last ran on, busy or not. This
// is the §3.3 failure mode expressed as a deliberate policy — under
// pinned or bursty workloads it recreates overload-on-wakeup even
// though the balancer underneath has every fix.
type affinityStrict struct{}

func (affinityStrict) PlaceWakeup(t *sched.Thread, waker *sched.Thread,
	prev topology.CoreID, allowed sched.CPUSet) (topology.CoreID, bool) {
	return prev, true
}

// leastLoaded picks the allowed core with the lowest decayed load,
// lowest id on ties — deterministic given scheduler state.
func leastLoaded(s *sched.Scheduler, allowed sched.CPUSet) (topology.CoreID, bool) {
	best := topology.CoreID(-1)
	bestLoad := 0.0
	allowed.ForEach(func(c topology.CoreID) {
		if l := s.CPULoad(c); best < 0 || l < bestLoad {
			best, bestLoad = c, l
		}
	})
	return best, best >= 0
}
