package sched

import (
	"repro/internal/topology"
	"repro/internal/trace"
)

// This file is the scheduler's one event stream: every record it
// produces — the §4.2 runqueue, considered-cores and lifecycle events
// and the balance, steal, wakeup and migration decisions explain
// compares — leaves through emit, which offers it to each attached
// recorder. A recorder keeps the kinds of its set while it is started.
// Each site computes its record only when some started recorder keeps
// that kind's fields (wants); otherwise it only counts the record on the
// count-only recorders (count). Either way every recorder is offered
// each record once, and with nothing attached a site costs two branches.

// SetRecorder attaches r alongside any recorder already attached. A nil
// r attaches nothing. Count-only recorders are held apart, so that a
// kind only they keep costs its sites no fields.
func (s *Scheduler) SetRecorder(r *trace.Recorder) {
	switch {
	case r == nil:
	case r.CountOnly():
		s.counts = append(s.counts, r)
	default:
		s.recs = append(s.recs, r)
	}
}

// wants reports whether some started recorder keeps kind k's fields.
// Each record leaves its site exactly once: built and emitted when
// wants is true, passed to count when it is false.
func (s *Scheduler) wants(k trace.Kind) bool { return len(s.recs) != 0 && s.anyWants(k) }

func (s *Scheduler) anyWants(k trace.Kind) bool {
	for _, r := range s.recs {
		if r.Wants(k) {
			return true
		}
	}
	return false
}

// emit offers ev to every attached recorder, count-only ones included.
func (s *Scheduler) emit(ev trace.Event) {
	for _, r := range s.recs {
		r.Record(ev)
	}
	for _, r := range s.counts {
		r.Record(ev)
	}
}

// count offers a record of kind k that no recorder keeps the fields of:
// the count-only recorders, which read nothing but its kind, count it.
func (s *Scheduler) count(k trace.Kind) {
	for _, r := range s.counts {
		r.Record(trace.Event{Kind: k})
	}
}

// traceNr records an rq-size change (add_nr_running/sub_nr_running
// instrumentation, §4.2).
func (s *Scheduler) traceNr(c *CPU) {
	if !s.wants(trace.KindRQSize) {
		s.count(trace.KindRQSize)
		return
	}
	s.emit(trace.Event{
		At: s.eng.Now(), Kind: trace.KindRQSize, CPU: int32(c.id),
		Arg: int64(c.nrRunning()),
	})
}

// traceLoad records an rq-load change (account_entity_enqueue/dequeue
// instrumentation, §4.2). The load read folds decayed load averages, so
// it must stay behind the check.
func (s *Scheduler) traceLoad(c *CPU) {
	if !s.wants(trace.KindRQLoad) {
		s.count(trace.KindRQLoad)
		return
	}
	s.emit(trace.Event{
		At: s.eng.Now(), Kind: trace.KindRQLoad, CPU: int32(c.id),
		Arg: int64(s.CPULoad(c.id)),
	})
}

// EmitSnapshot records the current runqueue size and load of every online
// core. Call it right after starting a recorder: trace events only
// capture changes, so consumers need the initial state to reconstruct
// occupancy (cores busy since before the recording window would otherwise
// read as idle).
func (s *Scheduler) EmitSnapshot() {
	for _, c := range s.cpus {
		if !c.online {
			continue
		}
		s.traceNr(c)
		s.traceLoad(c)
	}
}

// traceConsidered records the set of cores examined by a balancing or
// wakeup decision (§4.2, used for Figure 5).
func (s *Scheduler) traceConsidered(cpu topology.CoreID, op trace.Op, mask CPUSet) {
	if !s.wants(trace.KindConsidered) {
		s.count(trace.KindConsidered)
		return
	}
	s.emit(trace.Event{
		At: s.eng.Now(), Kind: trace.KindConsidered, Op: op,
		CPU: int32(cpu), Mask: mask.TraceMask(),
	})
}

// traceLifecycle records a thread's creation (KindFork) or exit
// (KindExit) on cpu.
func (s *Scheduler) traceLifecycle(k trace.Kind, cpu topology.CoreID, t *Thread) {
	if !s.wants(k) {
		s.count(k)
		return
	}
	s.emit(trace.Event{At: s.eng.Now(), Kind: k, CPU: int32(cpu), Arg: int64(t.id)})
}

// traceMigration records a thread migration and its cause.
func (s *Scheduler) traceMigration(t *Thread, from, to topology.CoreID, op trace.Op) {
	if !s.wants(trace.KindMigration) {
		s.count(trace.KindMigration)
		return
	}
	s.emit(trace.Event{
		At: s.eng.Now(), Kind: trace.KindMigration, Op: op,
		CPU: int32(from), Dst: int32(to), Arg: int64(t.id),
	})
}

// traceBalance records one balancing decision with the group metrics it
// compared — the §4.1 profiling data ("the values of the variables they
// use") that explains why a balance call moved nothing.
func (s *Scheduler) traceBalance(c *CPU, op trace.Op, v trace.Verdict, local, busiest *groupStats, moved int) {
	if s.mx != nil {
		s.mx.observeBalance(s, v, local, busiest)
	}
	if !s.wants(trace.KindBalance) {
		s.count(trace.KindBalance)
		return
	}
	ev := trace.Event{
		At: s.eng.Now(), Kind: trace.KindBalance, Op: op, Code: uint8(v),
		CPU: int32(c.id), Dst: int32(moved), Arg: int64(s.metric(local)), Aux: -1,
	}
	if busiest != nil {
		ev.Aux = int64(s.metric(busiest))
		ev.Mask = busiest.set.TraceMask()
	}
	s.emit(ev)
}

// traceStealReject records a steal attempt that moved nothing: the
// balancing core c nominated bcpu from the busiest group, but every
// candidate thread was pinned away (VerdictPinned) or cache-hot
// (VerdictHot). This is the §3.1 evidence at its finest grain — the
// exact core whose threads the balancer looked at and declined.
func (s *Scheduler) traceStealReject(c *CPU, bcpu topology.CoreID, op trace.Op, v trace.Verdict, busiest *groupStats) {
	if !s.wants(trace.KindStealReject) {
		s.count(trace.KindStealReject)
		return
	}
	s.emit(trace.Event{
		At: s.eng.Now(), Kind: trace.KindStealReject, Op: op, Code: uint8(v),
		CPU: int32(c.id), Dst: int32(bcpu),
		Arg: int64(s.metric(busiest)), Mask: busiest.set.TraceMask(),
	})
}

// traceWakeup records one wakeup placement decision: the previous core
// the decision ran against, the chosen core, the set of cores actually
// considered (the §3.3 evidence — a node-scoped mask is the bug's
// signature), and whether the choice put the thread on a busy core
// while an allowed core sat idle.
func (s *Scheduler) traceWakeup(t *Thread, prev, chosen topology.CoreID, considered CPUSet, path trace.WakePath) {
	if !s.wants(trace.KindWakeup) {
		s.count(trace.KindWakeup)
		return
	}
	var aux int64
	if !s.cpus[chosen].idle() {
		if _, ok := s.LongestIdle(t.affinity.And(s.OnlineSet())); ok {
			aux = 1
		}
	}
	s.emit(trace.Event{
		At: s.eng.Now(), Kind: trace.KindWakeup, Op: trace.OpWakeup, Code: uint8(path),
		CPU: int32(prev), Dst: int32(chosen), Arg: int64(t.id), Aux: aux,
		Mask: considered.TraceMask(),
	})
}
