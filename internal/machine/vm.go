package machine

import (
	"fmt"

	"repro/internal/sched"
)

// This file is the program interpreter. Every entry point runs inside its
// own simulation event (never inside a scheduler context switch), so VM
// steps may freely call back into the scheduler to block, wake, or exit
// threads.

// vmResume continues a thread after it (re)gains the CPU.
func (m *Machine) vmResume(t *MThread, epoch uint64) {
	if t.epoch != epoch || t.done || t.T.State() != sched.StateRunning {
		return // superseded: the thread was preempted or blocked again
	}
	switch {
	case t.spinLock != nil:
		// Spinning on a lock: grab it if it was released while we were
		// off-CPU or queued; otherwise keep burning cycles.
		l := t.spinLock
		if l.holder == nil {
			m.acquireLock(l, t)
			m.step(t)
		}
	case t.spinFlag != nil:
		// Spinning on a flag: consume a token if one arrived while we
		// were off-CPU.
		f := t.spinFlag
		if f.tokens > 0 {
			m.consumeFlag(f, t)
			m.step(t)
		}
	case t.spinBarrier != nil:
		// Still spinning at the barrier; the release path advances us.
	case t.computing:
		m.scheduleCompute(t, t.proc.rate())
	default:
		m.step(t)
	}
}

// computeDone fires when a compute segment finishes.
func (m *Machine) computeDone(t *MThread, epoch uint64) {
	if t.epoch != epoch || t.done {
		return
	}
	t.computing = false
	t.workDone += t.segmentTotal
	t.segmentTotal = 0
	t.remaining = 0
	if q := t.poppedFrom; q != nil {
		// A popped task completed.
		t.poppedFrom = nil
		q.outstanding--
		q.Completed++
		// Tree tasks fan out: the completing worker becomes the waker of
		// the threads that pick up the children (§3.3's wakeup pattern).
		if task := t.poppedTask; task.Depth > 0 && task.Fanout > 0 {
			child := Task{Dur: task.Dur, Fanout: task.Fanout, Depth: task.Depth - 1}
			m.pushTasks(q, child, task.Fanout, t)
		}
		if done := t.poppedTask.OnDone; done != nil {
			done()
		}
		if q.Idle() {
			m.wakeDrainers(q, t)
		}
	}
	t.pc++
	m.step(t)
}

// step executes instructions until the thread yields the CPU (compute,
// spin, block, or exit).
func (m *Machine) step(t *MThread) {
	for {
		if t.pc >= len(t.prog) {
			m.exitThread(t)
			return
		}
		ins := &t.prog[t.pc]
		switch ins.Kind {
		case OpCompute:
			t.computing = true
			t.remaining = ins.Dur
			t.segmentTotal = ins.Dur
			m.scheduleCompute(t, t.proc.rate())
			return

		case OpSleep:
			t.pc++
			m.Sched.BlockCurrent(t.T, sched.StateSleeping)
			t.sleepH = m.Eng.AfterCall(ins.Dur, t.sleepCb, 0)
			return

		case OpLock:
			l := m.locks[ins.Obj]
			if l.holder == nil {
				m.acquireLock(l, t)
				continue
			}
			// Contended: spin on-CPU.
			l.Contended++
			l.spinners = append(l.spinners, t)
			t.spinLock = l
			t.spinStart = m.Eng.Now()
			return

		case OpUnlock:
			l := m.locks[ins.Obj]
			if l.holder != t {
				panic(fmt.Sprintf("machine: thread %d unlocking lock %d held by %v",
					t.T.ID(), l.id, l.holder))
			}
			l.holder = nil
			t.pc++
			m.grantLock(l)
			continue

		case OpBarrier:
			b := m.barriers[ins.Obj]
			b.arrived = append(b.arrived, t)
			if len(b.arrived) == b.parties {
				m.releaseBarrier(b, t)
				continue // we passed too; t.pc was advanced by release
			}
			t.spinBarrier = b
			t.spinStart = m.Eng.Now()
			if b.blockAfter > 0 {
				t.btimeoutGen = b.Completions
				t.btimeoutH = m.Eng.AfterCall(b.blockAfter, t.btimeoutCb, b.Completions)
			}
			return

		case OpWait:
			q := m.waitqs[ins.Obj]
			q.waiters = append(q.waiters, t)
			t.pc++
			m.Sched.BlockCurrent(t.T, sched.StateBlocked)
			return

		case OpSignal:
			q := m.waitqs[ins.Obj]
			q.Signals++
			if len(q.waiters) > 0 {
				w := q.waiters[0]
				q.waiters = q.waiters[1:]
				m.Sched.Wake(w.T, t.T)
			} else {
				q.LostSignals++
			}
			t.pc++
			continue

		case OpSignalAll:
			q := m.waitqs[ins.Obj]
			q.Signals++
			waiters := q.waiters
			q.waiters = nil
			for _, w := range waiters {
				m.Sched.Wake(w.T, t.T)
			}
			t.pc++
			continue

		case OpPop:
			q := m.workqs[ins.Obj]
			if q.Pending() > 0 {
				task := q.pop()
				q.outstanding++
				t.poppedFrom = q
				t.poppedTask = task
				t.computing = true
				t.remaining = task.Dur
				t.segmentTotal = task.Dur
				m.scheduleCompute(t, t.proc.rate())
				return
			}
			// Empty: block until a producer pushes. pc stays at OpPop so
			// the retry re-checks the queue.
			q.popWaiters = append(q.popWaiters, t)
			m.Sched.BlockCurrent(t.T, sched.StateBlocked)
			return

		case OpPush:
			q := m.workqs[ins.Obj]
			m.pushTasks(q, Task{Dur: ins.Dur, Fanout: int(ins.Fanout), Depth: int(ins.Depth)}, int(ins.Count), t)
			t.pc++
			continue

		case OpDrain:
			q := m.workqs[ins.Obj]
			if q.Idle() {
				t.pc++
				continue
			}
			q.drainers = append(q.drainers, t)
			t.pc++
			m.Sched.BlockCurrent(t.T, sched.StateBlocked)
			return

		case OpJump:
			cnt, seen := t.loops[t.pc]
			if !seen {
				cnt = int(ins.Count)
			}
			if cnt > 0 {
				t.loops[t.pc] = cnt - 1
				t.pc = int(ins.To)
			} else {
				delete(t.loops, t.pc)
				t.pc++
			}
			continue

		case OpWaitFlag:
			f := m.flags[ins.Obj]
			f.Waits++
			if f.tokens > 0 {
				m.consumeFlag(f, t)
				continue
			}
			f.spinners = append(f.spinners, t)
			t.spinFlag = f
			t.spinStart = m.Eng.Now()
			return

		case OpPostFlag:
			f := m.flags[ins.Obj]
			f.tokens++
			f.Posts++
			t.pc++
			m.grantFlag(f)
			continue

		case OpExit:
			m.exitThread(t)
			return

		default:
			panic(fmt.Sprintf("machine: bad instruction %v at pc %d", ins.Kind, t.pc))
		}
	}
}

// acquireLock hands l to t (which must be at its OpLock instruction),
// removing t from the spinner list if it was waiting.
func (m *Machine) acquireLock(l *SpinLock, t *MThread) {
	l.holder = t
	l.Acquisitions++
	for i, w := range l.spinners {
		if w == t {
			l.spinners = append(l.spinners[:i], l.spinners[i+1:]...)
			break
		}
	}
	if t.spinLock != nil {
		t.spinTime += m.Eng.Now() - t.spinStart
		t.spinLock = nil
	}
	t.pc++
}

// grantLock passes a released lock to the first spinner that is currently
// on a CPU. Spinners that were preempted stay in the spinner list and
// retry when rescheduled — if no spinner is on-CPU the lock stays free,
// which is exactly how a descheduled waiter wastes lock throughput (§3.2).
func (m *Machine) grantLock(l *SpinLock) {
	for i, w := range l.spinners {
		if w.T.State() != sched.StateRunning {
			continue
		}
		l.spinners = append(l.spinners[:i], l.spinners[i+1:]...)
		m.acquireLock(l, w)
		m.deferStep(w)
		return
	}
}

// consumeFlag hands a posted token to t (which must be at its OpWaitFlag
// instruction), removing it from the spinner list if it was waiting.
func (m *Machine) consumeFlag(f *SpinFlag, t *MThread) {
	f.tokens--
	for i, w := range f.spinners {
		if w == t {
			f.spinners = append(f.spinners[:i], f.spinners[i+1:]...)
			break
		}
	}
	if t.spinFlag != nil {
		t.spinTime += m.Eng.Now() - t.spinStart
		t.spinFlag = nil
	}
	t.pc++
}

// grantFlag passes freshly posted tokens to on-CPU spinners in arrival
// order. Preempted spinners retry when rescheduled — a descheduled
// consumer stalls its whole downstream pipeline (§3.2's lu).
func (m *Machine) grantFlag(f *SpinFlag) {
	for f.tokens > 0 {
		granted := false
		for _, w := range f.spinners {
			if w.T.State() != sched.StateRunning {
				continue
			}
			m.consumeFlag(f, w)
			m.deferStep(w)
			granted = true
			break
		}
		if !granted {
			return
		}
	}
}

// barrierSpinTimeout converts a still-spinning waiter into a blocked one
// after the adaptive spin window (the OpenMP spin-then-yield policy).
// Waiters that were preempted while spinning stay queued: they cost no
// CPU there.
func (m *Machine) barrierSpinTimeout(t *MThread, b *SpinBarrier, gen uint64) {
	if b.Completions != gen || t.spinBarrier != b || t.done {
		return // the barrier completed, or the thread moved on
	}
	if t.T.State() != sched.StateRunning {
		return
	}
	t.spinTime += m.Eng.Now() - t.spinStart
	t.spinBarrier = nil
	t.blockedOnBarrier = b
	b.Blocks++
	m.Sched.BlockCurrent(t.T, sched.StateBlocked)
}

// releaseBarrier opens the barrier: every arrival advances past it;
// on-CPU arrivals continue immediately (except self, which continues
// inline in its own step loop), queued ones continue when next scheduled,
// and futex-blocked ones are woken with the releasing thread as waker.
func (m *Machine) releaseBarrier(b *SpinBarrier, self *MThread) {
	now := m.Eng.Now()
	b.Completions++
	arrived := b.arrived
	b.arrived = nil
	for _, w := range arrived {
		m.Eng.Cancel(w.btimeoutH)
		if w.spinBarrier != nil {
			if w.T.State() == sched.StateRunning {
				w.spinTime += now - w.spinStart
			}
			w.spinBarrier = nil
		}
		w.pc++
		if w.blockedOnBarrier == b {
			w.blockedOnBarrier = nil
			m.Sched.Wake(w.T, self.T)
			continue
		}
		if w != self && w.T.State() == sched.StateRunning {
			m.deferStep(w)
		}
	}
}

// deferStep schedules a VM step for a thread that was advanced by another
// thread's action (lock grant, barrier release) while on-CPU. The fire
// re-validates everything: another path (vmResume after a same-instant
// context switch) may already have progressed the thread, in which case
// stepping again would double-execute an instruction.
func (m *Machine) deferStep(t *MThread) {
	if t.stepPending {
		return
	}
	t.stepPending = true
	t.deferArg = t.epoch
	t.deferH = m.Eng.AfterCall(0, t.deferCb, t.epoch)
}

// deferFire is the deferred-step body (t.deferCb's target).
func (m *Machine) deferFire(t *MThread, epoch uint64) {
	t.stepPending = false
	if t.epoch != epoch || t.done || t.T.State() != sched.StateRunning {
		return
	}
	if t.computing || t.spinning() || t.blockedOnBarrier != nil {
		return // already progressed through another path
	}
	m.step(t)
}

// pushTasks appends count copies of task and wakes blocked poppers, one
// per task, with pusher as the waker.
func (m *Machine) pushTasks(q *WorkQueue, task Task, count int, pusher *MThread) {
	for i := 0; i < count; i++ {
		q.push(task)
	}
	n := count
	for n > 0 && len(q.popWaiters) > 0 {
		w := q.popWaiters[0]
		q.popWaiters = q.popWaiters[1:]
		m.Sched.Wake(w.T, pusher.T)
		n--
	}
}

// InjectTask pushes a single task onto q from outside the VM — an
// open-loop arrival process driven by engine events rather than by a
// program instruction. A blocked popper is woken with no waker, like a
// timer expiration, so placement starts from the wakee's previous core
// and walks the §3.3 node-local search path.
func (m *Machine) InjectTask(q *WorkQueue, task Task) {
	q.push(task)
	if len(q.popWaiters) > 0 {
		w := q.popWaiters[0]
		q.popWaiters = q.popWaiters[1:]
		m.Sched.Wake(w.T, nil)
	}
}

// wakeDrainers releases threads blocked in OpDrain once the queue is idle.
func (m *Machine) wakeDrainers(q *WorkQueue, waker *MThread) {
	drainers := q.drainers
	q.drainers = nil
	for _, d := range drainers {
		m.Sched.Wake(d.T, waker.T)
	}
}

// exitThread terminates t's program.
func (m *Machine) exitThread(t *MThread) {
	if t.done {
		return
	}
	t.done = true
	t.finishedAt = m.Eng.Now()
	t.proc.threadExited(t)
	m.Sched.ExitCurrent(t.T)
}
