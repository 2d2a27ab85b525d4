package sched

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file is the scheduling-latency instrumentation point. The paper's
// bugs waste cores, but their user-visible symptom is latency: runnable
// threads sit on overloaded queues while other cores idle (§3.1, §3.2),
// and Overload-on-Wakeup stacks wakeups onto busy cores (§3.3). A
// LatencyProbe observes exactly the two raw signals those pathologies
// leave behind — how long each thread waited between becoming runnable
// and getting a CPU, and where each wakeup landed relative to the
// system's idle capacity — without the scheduler knowing anything about
// digests or streak thresholds (that aggregation lives in
// internal/latency).

// LatencyProbe receives scheduling-latency events. Implementations must
// be cheap and deterministic: probes fire on the scheduler hot path
// inside the simulation, so anything they compute becomes part of the
// run's (deterministic) event stream.
type LatencyProbe interface {
	// WaitEnd fires when a thread gets a CPU after waiting on a
	// runqueue: wait is the span since the thread became runnable
	// (wakeup, fork, preemption or hotplug re-enqueue — migrations do
	// not restart the span), and wakeup reports whether the span began
	// with a wakeup, i.e. whether wait is a wakeup-to-run delay.
	WaitEnd(at sim.Time, t *Thread, cpu topology.CoreID, wait sim.Time, wakeup bool)

	// WakeupPlaced fires when wakeup placement chooses a core: busy
	// reports that the chosen core already had work (the §3.3 symptom),
	// and idleAllowed that some online core the thread was allowed to
	// run on sat idle at that moment — the pair that makes a busy
	// placement a witnessed waste rather than a saturated system.
	WakeupPlaced(at sim.Time, t *Thread, cpu topology.CoreID, busy, idleAllowed bool)
}

// SetLatencyProbe installs (or clears, with nil) the latency probe.
func (s *Scheduler) SetLatencyProbe(p LatencyProbe) { s.latProbe = p }

// markWaiting stamps the start of a runqueue-wait span on t. Called on
// every transition to Runnable that begins a wait (enqueueThread for
// forks and wakeups, schedule for preemptions, DisableCPU for hotplug
// re-enqueues) — but never on migration, which continues a span.
func (s *Scheduler) markWaiting(t *Thread, wakeup bool) {
	t.waitSince = s.eng.Now()
	t.waitWakeup = wakeup
	t.waiting = true
}

// observeWaitEnd closes t's wait span as it becomes current on c.
func (s *Scheduler) observeWaitEnd(c *CPU, t *Thread) {
	if !t.waiting {
		return
	}
	t.waiting = false
	if s.latProbe == nil {
		return
	}
	now := s.eng.Now()
	s.latProbe.WaitEnd(now, t, c.id, now-t.waitSince, t.waitWakeup)
}

// observeWakeupPlaced reports a wakeup placement to the probe, deciding
// whether an allowed idle core existed at that instant.
func (s *Scheduler) observeWakeupPlaced(t *Thread, cpu topology.CoreID, busy bool) {
	if s.latProbe == nil {
		return
	}
	idleAllowed := false
	for id := s.idleHead; id >= 0; id = s.cpus[id].idleNext {
		if t.affinity.Has(id) && s.cpus[id].online && s.cpus[id].idle() {
			idleAllowed = true
			break
		}
	}
	s.latProbe.WakeupPlaced(s.eng.Now(), t, cpu, busy, idleAllowed)
}
