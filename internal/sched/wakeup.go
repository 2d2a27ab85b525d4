package sched

import (
	"repro/internal/topology"
	"repro/internal/trace"
)

// This file implements wakeup core selection (the kernel's
// select_task_rq_fair + select_idle_sibling), including the
// Overload-on-Wakeup bug (§3.3):
//
//	"When a thread goes to sleep on Node X and the thread that wakes it
//	up later is running on that same node, the scheduler only considers
//	the cores of Node X for scheduling the awakened thread. If all cores
//	of Node X are busy, the thread will wake up on an already busy core
//	and miss opportunities to use idle cores on other nodes."
//
// and its fix:
//
//	"We wake up the thread on the local core — i.e., the core where the
//	thread was scheduled last — if it is idle; otherwise, if there are
//	idle cores in the system, we wake up the thread on the core that has
//	been idle for the longest amount of time. If there are no idle cores,
//	we fall back to the original algorithm."
//
// The fix is gated on the power policy, exactly as in the paper.

// PlacementPolicy lets an external policy layer override wakeup placement
// — the integration point for the paper's §5 vision of a modular
// scheduler (see internal/modsched): "the core module should be able to
// take suggestions from optimization modules and to act on them whenever
// feasible, while always maintaining the basic invariants".
type PlacementPolicy interface {
	// PlaceWakeup returns the core for a waking thread, or ok=false to
	// fall through to the built-in policy. The returned core must be in
	// allowed; the scheduler re-validates.
	PlaceWakeup(t *Thread, waker *Thread, prev topology.CoreID, allowed CPUSet) (topology.CoreID, bool)
}

// SetPlacementPolicy installs (or clears, with nil) a placement policy.
func (s *Scheduler) SetPlacementPolicy(p PlacementPolicy) { s.policy = p }

// selectTaskRQ picks the core on which to enqueue a waking thread.
func (s *Scheduler) selectTaskRQ(t *Thread, waker *Thread) topology.CoreID {
	allowed := t.affinity.And(s.OnlineSet())
	if allowed.Empty() {
		// Hotplug took every allowed core offline while the thread
		// slept: break affinity, as the kernel's select_fallback_rq
		// does.
		allowed = s.OnlineSet()
		s.counters.AffinityBreaks++
	}
	prev := t.cpu
	if prev < 0 || !allowed.Has(prev) {
		prev = allowed.First()
	}

	if s.policy != nil {
		if cpu, ok := s.policy.PlaceWakeup(t, waker, prev, allowed); ok && allowed.Has(cpu) {
			s.traceConsidered(cpu, trace.OpWakeup, allowed)
			s.traceWakeup(t, prev, cpu, allowed, trace.WakePolicy)
			return cpu
		}
	}

	// Fold the wake-affine load inputs up front, under the exact condition
	// the original path reads them. The load reads advance decayed load
	// averages; doing it here means both the fixed and the original path
	// leave identical load state behind, so a run where the fix never
	// changed a placement is bit-for-bit the run without the fix — the
	// invariant the divergence probe certifies. (Folding is idempotent
	// within an instant, so the original path's own reads are cache hits.)
	if waker != nil && waker.cpu >= 0 && s.cpus[waker.cpu].online && allowed.Has(waker.cpu) &&
		s.topo.NodeOf(waker.cpu) != s.topo.NodeOf(prev) {
		_ = s.CPULoad(waker.cpu)
		_ = t.load(s.eng.Now())
		_ = s.CPULoad(prev)
	}

	if s.cfg.Features.Has(FixOverloadWakeup) && s.cfg.Power == PowerPerformance {
		if cpu, ok := s.fixedWakeupTarget(prev, allowed); ok {
			s.traceConsidered(cpu, trace.OpWakeup, s.OnlineSet().And(allowed))
			s.traceWakeup(t, prev, cpu, s.OnlineSet().And(allowed), trace.WakeFixed)
			return cpu
		}
		// No idle core anywhere: fall back to the original algorithm.
	}
	cpu, considered := s.originalWakeupTarget(t, waker, prev, allowed)
	if s.probe.Watching(FixOverloadWakeup) &&
		!s.cfg.Features.Has(FixOverloadWakeup) && s.cfg.Power == PowerPerformance {
		if fcpu, ok := s.fixedWakeupTarget(prev, allowed); ok && fcpu != cpu {
			s.probe.Fired |= FixOverloadWakeup
		}
	}
	s.traceWakeup(t, prev, cpu, considered, trace.WakeOriginal)
	return cpu
}

// fixedWakeupTarget implements the paper's fix: previous core if idle,
// else the longest-idle core in the system.
func (s *Scheduler) fixedWakeupTarget(prev topology.CoreID, allowed CPUSet) (topology.CoreID, bool) {
	if s.cpus[prev].idle() {
		return prev, true
	}
	return s.LongestIdle(allowed)
}

// LongestIdle returns the allowed core that has been idle the longest,
// or ok=false when no allowed core is idle. The idle list is ordered by
// time entered; its head has been idle the longest ("the kernel already
// maintains a list of all idle cores in the system, so picking the
// first one takes constant time"). This is the primitive behind the
// §3.3 fixed wakeup path, exported for external placement policies
// (internal/policy, internal/globalq).
func (s *Scheduler) LongestIdle(allowed CPUSet) (topology.CoreID, bool) {
	for id := s.idleHead; id >= 0; id = s.cpus[id].idleNext {
		if allowed.Has(id) && s.cpus[id].idle() {
			return id, true
		}
	}
	return -1, false
}

// originalWakeupTarget is the vanilla path: choose a target core (the
// waker's for synchronous wakeups — "the scheduler attempts to place the
// woken up thread physically close to the waker thread"), then search for
// an idle core only within the target's node (the LLC domain). When the
// whole node is busy the thread is enqueued on the target core even though
// other nodes may have idle cores — the Overload-on-Wakeup bug.
func (s *Scheduler) originalWakeupTarget(t *Thread, waker *Thread, prev topology.CoreID, allowed CPUSet) (topology.CoreID, CPUSet) {
	target := prev
	if waker != nil && waker.cpu >= 0 && s.cpus[waker.cpu].online && allowed.Has(waker.cpu) {
		wcpu := waker.cpu
		if s.topo.NodeOf(wcpu) == s.topo.NodeOf(prev) {
			// Waker runs on the node where the wakee went to sleep:
			// the §3.3 situation. The search below stays on this node
			// either way.
			target = prev
		} else {
			// wake_affine_weight, simplified: pull to the waker's cache
			// domain only when its core carries less load than the
			// wakee's previous core.
			now := s.eng.Now()
			if s.CPULoad(wcpu)+t.load(now) < s.CPULoad(prev) {
				target = wcpu
			}
		}
	}

	node := s.topo.NodeOf(target)
	cands := NewCPUSet(s.topo.CoresOfNode(node)...).And(allowed)
	cands.ForEach(func(id topology.CoreID) {
		if !s.cpus[id].online {
			cands.Clear(id)
		}
	})
	s.traceConsidered(target, trace.OpWakeup, cands)
	if cands.Empty() {
		return allowed.First(), cands
	}

	// select_idle_sibling order: target, prev, target's SMT sibling,
	// then any idle core of the node.
	if cands.Has(target) && s.cpus[target].idle() {
		return target, cands
	}
	if cands.Has(prev) && s.cpus[prev].idle() {
		return prev, cands
	}
	if sib, ok := s.topo.SMTSibling(target); ok && cands.Has(sib) && s.cpus[sib].idle() {
		return sib, cands
	}
	found := topology.CoreID(-1)
	cands.ForEach(func(id topology.CoreID) {
		if found < 0 && s.cpus[id].idle() {
			found = id
		}
	})
	if found >= 0 {
		return found, cands
	}
	// Node fully busy: wake on the target core anyway — the bug. Idle
	// cores on other nodes are never considered.
	if cands.Has(target) {
		return target, cands
	}
	return cands.First(), cands
}
