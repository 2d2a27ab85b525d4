package machine

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Machine is a complete simulated system: topology + CFS scheduler +
// workload execution. It is the object experiments construct.
type Machine struct {
	Eng   *sim.Engine
	Topo  *topology.Topology
	Sched *sched.Scheduler

	procs    []*Proc
	threads  []*MThread // indexed by scheduler tid; nil for a tid without a VM thread
	locks    []*SpinLock
	barriers []*SpinBarrier
	waitqs   []*WaitQueue
	workqs   []*WorkQueue
	flags    []*SpinFlag
	nextProc int
}

// New builds a machine over topo with the given scheduler configuration
// and deterministic seed, and starts the scheduler.
func New(topo *topology.Topology, cfg sched.Config, seed int64) *Machine {
	eng := sim.New(seed)
	m := &Machine{
		Eng:   eng,
		Topo:  topo,
		Sched: sched.New(eng, topo, cfg),
	}
	m.Sched.SetHooks(m)
	m.Sched.Start()
	return m
}

// SetRecorder attaches a trace recorder to the scheduler.
func (m *Machine) SetRecorder(r *trace.Recorder) { m.Sched.SetRecorder(r) }

// ProcOpts configures process creation.
type ProcOpts struct {
	// SharedGroup places the process in the root group instead of a
	// fresh autogroup (the paper disables autogroups in the Figure 3
	// experiment).
	SharedGroup bool
	// Cap is the parallel-efficiency cap (maximum effective concurrent
	// compute threads); <= 0 means perfect scaling.
	Cap float64
	// OnDone is invoked when the last thread exits.
	OnDone func(*Proc)
}

// NewProc creates a process. Each process gets its own autogroup (its
// "tty") unless SharedGroup is set.
func (m *Machine) NewProc(name string, opts ProcOpts) *Proc {
	p := &Proc{
		m:         m,
		id:        m.nextProc,
		name:      name,
		cap:       opts.Cap,
		onDone:    opts.OnDone,
		startedAt: m.Eng.Now(),
	}
	m.nextProc++
	if opts.SharedGroup {
		p.group = nil // root group
	} else {
		p.group = m.Sched.NewGroup(name)
	}
	m.procs = append(m.procs, p)
	return p
}

// Procs returns all processes created on this machine.
func (m *Machine) Procs() []*Proc { return m.procs }

// NewSpinLock creates a spinlock.
func (m *Machine) NewSpinLock() *SpinLock {
	l := &SpinLock{id: len(m.locks)}
	m.locks = append(m.locks, l)
	return l
}

// NewSpinBarrier creates a spin barrier for parties participants.
func (m *Machine) NewSpinBarrier(parties int) *SpinBarrier {
	if parties < 1 {
		panic("machine: barrier needs at least one party")
	}
	b := &SpinBarrier{id: len(m.barriers), parties: parties}
	m.barriers = append(m.barriers, b)
	return b
}

// NewAdaptiveBarrier creates a spin-then-block barrier: waiters spin for
// blockAfter, then block until released (OpenMP's default wait policy).
func (m *Machine) NewAdaptiveBarrier(parties int, blockAfter sim.Time) *SpinBarrier {
	b := m.NewSpinBarrier(parties)
	b.blockAfter = blockAfter
	return b
}

// NewWaitQueue creates a futex-style wait queue.
func (m *Machine) NewWaitQueue() *WaitQueue {
	q := &WaitQueue{id: len(m.waitqs)}
	m.waitqs = append(m.waitqs, q)
	return q
}

// NewWorkQueue creates a worker-pool task queue.
func (m *Machine) NewWorkQueue() *WorkQueue {
	q := &WorkQueue{id: len(m.workqs)}
	m.workqs = append(m.workqs, q)
	return q
}

// NewSpinFlag creates a directional spin handoff.
func (m *Machine) NewSpinFlag() *SpinFlag {
	f := &SpinFlag{id: len(m.flags)}
	m.flags = append(m.flags, f)
	return f
}

// Run advances virtual time by d.
func (m *Machine) Run(d sim.Time) { m.Eng.RunUntil(m.Eng.Now() + d) }

// RunUntil advances virtual time to t.
func (m *Machine) RunUntil(t sim.Time) { m.Eng.RunUntil(t) }

// RunUntilDone runs until every given proc has finished or the horizon is
// reached; it reports the finish time and whether all completed. A nil
// procs slice waits for every process on the machine.
func (m *Machine) RunUntilDone(horizon sim.Time, procs ...*Proc) (sim.Time, bool) {
	if len(procs) == 0 {
		procs = m.procs
	}
	allDone := func() bool {
		for _, p := range procs {
			if !p.done {
				return false
			}
		}
		return true
	}
	// Step event by event, checking completion between events. Chunked
	// stepping would make the post-completion event stream depend on the
	// chunk grid, which breaks byte-identity between a forked run and a
	// sequential one entered at a different time.
	for {
		if allDone() {
			return m.latestFinish(procs), true
		}
		next, ok := m.Eng.NextEventAt()
		if !ok || next > horizon {
			break
		}
		m.Eng.Step()
	}
	m.Eng.RunUntil(horizon)
	return m.Eng.Now(), allDone()
}

func (m *Machine) latestFinish(procs []*Proc) sim.Time {
	var latest sim.Time
	for _, p := range procs {
		if p.finishedAt > latest {
			latest = p.finishedAt
		}
	}
	return latest
}

// DisableCore models "echo 0 > /sys/devices/system/cpu/cpuN/online" — the
// /proc interface of §3.4.
func (m *Machine) DisableCore(c topology.CoreID) error { return m.Sched.DisableCPU(c) }

// EnableCore re-enables a disabled core.
func (m *Machine) EnableCore(c topology.CoreID) error { return m.Sched.EnableCPU(c) }

// Thread returns the VM thread for a scheduler thread id, or nil when
// the scheduler thread has none.
func (m *Machine) Thread(tid int) *MThread {
	if tid < len(m.threads) {
		return m.threads[tid]
	}
	return nil
}

// --- sched.Hooks implementation -----------------------------------------

// ThreadStarted resumes the thread's program: reschedule its pending
// compute, retry a contended lock, or step to the next instruction. All
// VM work is deferred to a fresh event so it never reenters the scheduler
// mid-context-switch.
func (m *Machine) ThreadStarted(cpu topology.CoreID, st *sched.Thread) {
	t := m.Thread(st.ID())
	if t == nil || t.done {
		return
	}
	t.epoch++
	epoch := t.epoch
	m.procRunningChanged(t.proc, +1)
	if t.spinning() {
		t.spinStart = m.Eng.Now()
	}
	// Cancel a stale resume before scheduling the new one so at most one
	// is ever live, always carrying the current epoch — the invariant the
	// fork path relies on to re-register resumes on a cloned engine.
	m.Eng.Cancel(t.resumeH)
	t.resumeH = m.Eng.AfterCall(0, t.resumeCb, epoch)
}

// ThreadStopped pauses the thread's program, banking compute progress and
// spin time.
func (m *Machine) ThreadStopped(cpu topology.CoreID, st *sched.Thread, reason sched.StopReason) {
	t := m.Thread(st.ID())
	if t == nil {
		return
	}
	t.epoch++
	m.Eng.Cancel(t.resumeH)
	now := m.Eng.Now()
	if t.spinning() {
		t.spinTime += now - t.spinStart
	}
	if t.computing && t.computeTm.Pending() {
		t.computeTm.Stop()
		elapsed := now - t.startedAt
		t.remaining -= sim.Time(float64(elapsed) * t.rateAtStart)
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	m.procRunningChanged(t.proc, -1)
}

// procRunningChanged tracks the per-proc running-thread count and rebases
// in-flight computes when the parallel-efficiency rate shifts.
func (m *Machine) procRunningChanged(p *Proc, delta int) {
	if p == nil {
		return
	}
	oldRate := p.rate()
	p.running += delta
	if p.running < 0 {
		panic(fmt.Sprintf("machine: proc %s running count underflow", p.name))
	}
	if p.cap <= 0 {
		return
	}
	if newRate := p.rate(); newRate != oldRate {
		m.rebaseComputes(p, newRate)
	}
}

// rebaseComputes re-times the pending compute completions of p's running
// threads at the new rate.
func (m *Machine) rebaseComputes(p *Proc, newRate float64) {
	now := m.Eng.Now()
	for _, t := range p.threads {
		if !t.computing || !t.computeTm.Pending() {
			continue
		}
		t.computeTm.Stop()
		elapsed := now - t.startedAt
		t.remaining -= sim.Time(float64(elapsed) * t.rateAtStart)
		if t.remaining < 0 {
			t.remaining = 0
		}
		m.scheduleCompute(t, newRate)
	}
}

// scheduleCompute (re)arms t's compute-completion timer at the given rate.
// The timer is persistent per thread (reschedule in place, no allocation);
// at most one completion is ever pending, so the epoch stored at arm time
// is the one the fire must validate.
func (m *Machine) scheduleCompute(t *MThread, rate float64) {
	now := m.Eng.Now()
	t.startedAt = now
	t.rateAtStart = rate
	dur := sim.Time(float64(t.remaining) / rate)
	t.computeEpoch = t.epoch
	t.computeTm.Reset(now + dur)
}

// computeFire is t.computeTm's callback.
func (m *Machine) computeFire(t *MThread) {
	m.computeDone(t, t.computeEpoch)
}
