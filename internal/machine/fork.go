package machine

import (
	"slices"

	"repro/internal/sim"
)

// This file is the machine half of the world fork. Machine.Fork deep-
// copies the whole simulated system — engine clock, scheduler, processes,
// VM threads, sync primitives — into an independent world that replays
// byte-identically from the fork instant. Explain uses it to replay each
// episode under every single fix from a world forked mid-run.
//
// The engine fork hands back an empty event queue (sim.Engine.Fork), so
// the cloned owners re-register their live events at the original
// (time, sequence) positions. Every one-shot in the queue has a tracked
// owner: the scheduler's per-CPU tick/resched timers (restored by
// sched.Clone), each thread's compute timer, and the four handle-tracked
// VM callbacks (resume, deferred step, sleep expiry, barrier spin
// timeout). The handle discipline in vm.go/machine.go guarantees an
// Active handle always carries the argument recorded on the thread
// (epoch, deferArg, 0, btimeoutGen), so re-registration needs no queue
// introspection.

// Fork returns an independent deep copy of the machine at the current
// instant. Both worlds then advance separately and deterministically:
// running the fork produces byte-for-byte the history the original would
// have produced (and vice versa), because sequence numbers, RNG position
// and every piece of scheduler/VM state are preserved exactly.
//
// Fork panics when the machine holds state it cannot clone: external
// hooks (Proc.OnDone, Task.OnDone closures capture the pre-fork world)
// or an attached placement policy; explain counts such episodes as
// fork_unavailable. Observers are not carried: the fork starts with no
// recorders, metrics or probes attached.
func (m *Machine) Fork() *Machine {
	eng2 := m.Eng.Fork()
	sc2 := m.Sched.Clone(eng2)
	m2 := &Machine{
		Eng:      eng2,
		Topo:     m.Topo,
		Sched:    sc2,
		threads:  make([]*MThread, len(m.threads)),
		nextProc: m.nextProc,
	}
	sc2.SetHooks(m2)

	// Sync primitives first (scalar state only): thread pointers inside
	// them are filled once the thread table exists.
	for _, ol := range m.locks {
		nl := &SpinLock{id: ol.id, Acquisitions: ol.Acquisitions, Contended: ol.Contended}
		m2.locks = append(m2.locks, nl)
	}
	for _, ob := range m.barriers {
		nb := &SpinBarrier{id: ob.id, parties: ob.parties, blockAfter: ob.blockAfter,
			Completions: ob.Completions, Blocks: ob.Blocks}
		m2.barriers = append(m2.barriers, nb)
	}
	for _, oq := range m.waitqs {
		nq := &WaitQueue{id: oq.id, Signals: oq.Signals, LostSignals: oq.LostSignals}
		m2.waitqs = append(m2.waitqs, nq)
	}
	for _, of := range m.flags {
		nf := &SpinFlag{id: of.id, tokens: of.tokens, Posts: of.Posts, Waits: of.Waits}
		m2.flags = append(m2.flags, nf)
	}
	for _, oq := range m.workqs {
		nq := &WorkQueue{id: oq.id, outstanding: oq.outstanding,
			Pushed: oq.Pushed, Completed: oq.Completed}
		if pending := oq.tasks[oq.head:]; len(pending) > 0 {
			nq.tasks = make([]Task, len(pending))
			for i, task := range pending {
				if task.OnDone != nil {
					panic("machine: Fork with a queued Task.OnDone hook")
				}
				nq.tasks[i] = task
			}
		}
		m2.workqs = append(m2.workqs, nq)
	}

	// Processes and threads, in creation order (m.procs, then each proc's
	// thread list).
	for _, op := range m.procs {
		if op.onDone != nil {
			panic("machine: Fork with a Proc.OnDone hook")
		}
		np := &Proc{}
		*np = *op
		np.m = m2
		if op.group != nil {
			np.group = sc2.GroupByID(op.group.ID())
		}
		np.threads = make([]*MThread, 0, len(op.threads))
		m2.procs = append(m2.procs, np)
		for _, ot := range op.threads {
			nt := m2.forkThread(ot, np)
			np.threads = append(np.threads, nt)
			m2.threads[nt.T.ID()] = nt
		}
	}

	// Primitive membership: rebuild every thread list in source order.
	for i, ol := range m.locks {
		nl := m2.locks[i]
		if ol.holder != nil {
			nl.holder = m2.threads[ol.holder.T.ID()]
		}
		nl.spinners = m2.remapThreads(ol.spinners)
	}
	for i, ob := range m.barriers {
		m2.barriers[i].arrived = m2.remapThreads(ob.arrived)
	}
	for i, oq := range m.waitqs {
		m2.waitqs[i].waiters = m2.remapThreads(oq.waiters)
	}
	for i, of := range m.flags {
		m2.flags[i].spinners = m2.remapThreads(of.spinners)
	}
	for i, oq := range m.workqs {
		nq := m2.workqs[i]
		nq.popWaiters = m2.remapThreads(oq.popWaiters)
		nq.drainers = m2.remapThreads(oq.drainers)
	}
	return m2
}

// forkThread deep-copies one VM thread into m (the fork), rebinding its
// callbacks and re-registering its live engine events.
func (m *Machine) forkThread(ot *MThread, np *Proc) *MThread {
	nt := &MThread{}
	*nt = *ot
	nt.T = m.Sched.ThreadByID(ot.T.ID())
	nt.proc = np
	nt.loops = slices.Clone(ot.loops)
	if ot.poppedTask.OnDone != nil {
		panic("machine: Fork with an in-flight Task.OnDone hook")
	}
	nt.spinLock = remapByID(ot.spinLock, m.locks, func(l *SpinLock) int { return l.id })
	nt.spinBarrier = remapByID(ot.spinBarrier, m.barriers, func(b *SpinBarrier) int { return b.id })
	nt.spinFlag = remapByID(ot.spinFlag, m.flags, func(f *SpinFlag) int { return f.id })
	nt.blockedOnBarrier = remapByID(ot.blockedOnBarrier, m.barriers, func(b *SpinBarrier) int { return b.id })
	nt.poppedFrom = remapByID(ot.poppedFrom, m.workqs, func(q *WorkQueue) int { return q.id })

	// Fresh timer and callbacks bound to the fork, then re-register each
	// live event at its source position. Handles copied by the struct
	// assignment point into the source engine; overwrite all of them.
	nt.bindCallbacks(m)
	nt.computeTm.RestoreFrom(ot.computeTm)
	nt.resumeH = restoreHandle(m.Eng, ot.resumeH, nt.resumeCb, ot.epoch)
	nt.deferH = restoreHandle(m.Eng, ot.deferH, nt.deferCb, ot.deferArg)
	nt.sleepH = restoreHandle(m.Eng, ot.sleepH, nt.sleepCb, 0)
	nt.btimeoutH = restoreHandle(m.Eng, ot.btimeoutH, nt.btimeoutCb, ot.btimeoutGen)
	return nt
}

// restoreHandle re-registers one live one-shot event on the forked
// engine, preserving its (time, sequence) position. Inactive handles
// (fired, cancelled, never armed) restore to the inert zero Handle.
func restoreHandle(eng *sim.Engine, src sim.Handle, cb func(uint64), arg uint64) sim.Handle {
	seq, ok := src.Seq()
	if !ok {
		return sim.Handle{}
	}
	return eng.RestoreAtCall(src.When(), seq, cb, arg)
}

// remapThreads translates a primitive's member list into m's (the
// fork's) threads by tid, preserving order. Empty lists stay nil.
func (m *Machine) remapThreads(ts []*MThread) []*MThread {
	if len(ts) == 0 {
		return nil
	}
	out := make([]*MThread, len(ts))
	for i, t := range ts {
		out[i] = m.threads[t.T.ID()]
	}
	return out
}

// remapByID translates a primitive pointer into its fork counterpart via
// its slice index. Nil stays nil.
func remapByID[T any](p *T, pool []*T, id func(*T) int) *T {
	if p == nil {
		return nil
	}
	return pool[id(p)]
}

// Locks returns the machine's spinlocks in creation order (the fork
// tests compare both worlds' primitive state).
func (m *Machine) Locks() []*SpinLock { return m.locks }

// WorkQueues returns the machine's work queues in creation order.
func (m *Machine) WorkQueues() []*WorkQueue { return m.workqs }
