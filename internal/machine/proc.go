package machine

import (
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Proc is a process: a set of threads sharing an autogroup (one tty in the
// paper's scenarios, §2.2.1) and, optionally, a parallel-efficiency cap
// that models imperfect scaling of memory-bound applications (some NAS
// programs "do not scale ideally to 64 cores", §3.4).
type Proc struct {
	m     *Machine
	id    int
	name  string
	group *sched.TaskGroup

	threads []*MThread
	alive   int
	running int     // threads currently on a CPU
	cap     float64 // parallel-efficiency cap; <=0 means unlimited

	startedAt  sim.Time
	finishedAt sim.Time
	done       bool
	onDone     func(*Proc)
}

// ID returns the process id.
func (p *Proc) ID() int { return p.id }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Group returns the process's autogroup.
func (p *Proc) Group() *sched.TaskGroup { return p.group }

// Threads returns the process's threads.
func (p *Proc) Threads() []*MThread { return p.threads }

// Done reports whether every thread has exited.
func (p *Proc) Done() bool { return p.done }

// StartedAt returns the creation time of the process's first thread.
func (p *Proc) StartedAt() sim.Time { return p.startedAt }

// FinishedAt returns the exit time of the last thread (0 when not done).
func (p *Proc) FinishedAt() sim.Time { return p.finishedAt }

// Makespan returns FinishedAt-StartedAt for completed processes.
func (p *Proc) Makespan() sim.Time {
	if !p.done {
		return 0
	}
	return p.finishedAt - p.startedAt
}

// rate is the compute-speed multiplier for each running thread: 1 while
// the number of running threads is within the cap, cap/running beyond it
// (aggregate throughput saturates, as with memory-bandwidth-bound codes).
func (p *Proc) rate() float64 {
	if p.cap <= 0 || float64(p.running) <= p.cap {
		return 1
	}
	return p.cap / float64(p.running)
}

// TotalExec sums CPU time consumed by the process's threads.
func (p *Proc) TotalExec() sim.Time {
	var total sim.Time
	for _, t := range p.threads {
		total += t.T.SumExec()
	}
	return total
}

// TotalSpin sums CPU time the process's threads burned spinning on locks
// and barriers — wasted work that the paper's placement bugs amplify.
func (p *Proc) TotalSpin() sim.Time {
	var total sim.Time
	for _, t := range p.threads {
		total += t.spinTime
	}
	return total
}

// MThread pairs a scheduler thread with its program state.
type MThread struct {
	T    *sched.Thread
	proc *Proc
	prog Program

	// script holds the durations of the program's Scripted instructions
	// in execution order (immutable once spawned); scriptPos is the next
	// one to take.
	script    []sim.Time
	scriptPos int

	pc          int
	loops       []int32 // jumps taken per loop slot (Instr.Obj), grown on a slot's first jump
	epoch       uint64  // invalidates deferred VM events across preemptions
	stepPending bool    // a deferStep event is queued

	// Compute progress.
	computing    bool
	remaining    sim.Time // nominal CPU time left at rate 1
	segmentTotal sim.Time // total nominal duration of the current segment
	startedAt    sim.Time // when the current on-CPU compute segment began
	rateAtStart  float64
	computeTm    *sim.Timer // compute-completion timer, re-armed in place
	computeEpoch uint64     // epoch captured when computeTm was armed
	poppedFrom   *WorkQueue // the queue whose task is being computed
	poppedTask   Task       // the task being computed

	// Pre-bound engine callbacks (closure-free scheduling: the varying
	// epoch rides in the event's argument, so the VM's hottest events —
	// resume, deferred step, sleep expiry, barrier spin timeout —
	// allocate nothing).
	resumeCb   func(uint64)
	deferCb    func(uint64)
	sleepCb    func(uint64)
	btimeoutCb func(uint64)

	// Handles to this thread's outstanding one-shot events. They are what
	// makes a machine fork possible: every live event in the engine queue
	// has a tracked owner, so the cloned thread can re-register its events
	// at their original (time, sequence) positions. Stale resumes are
	// cancelled when superseded (ThreadStarted/ThreadStopped), so an
	// active resumeH always carries the current epoch; deferArg and
	// btimeoutGen record the argument of the other in-flight callbacks.
	resumeH     sim.Handle
	deferH      sim.Handle
	deferArg    uint64
	sleepH      sim.Handle
	btimeoutH   sim.Handle
	btimeoutGen uint64

	// Spin state: set while the thread is logically spinning. The
	// scheduler still sees it as runnable/running.
	spinLock         *SpinLock
	spinBarrier      *SpinBarrier
	spinFlag         *SpinFlag
	blockedOnBarrier *SpinBarrier // adaptive barrier: futex-blocked
	spinStart        sim.Time
	spinTime         sim.Time

	workDone   sim.Time // completed compute, at nominal rate
	done       bool
	finishedAt sim.Time
}

// Proc returns the owning process.
func (t *MThread) Proc() *Proc { return t.proc }

// Done reports whether the thread's program has exited.
func (t *MThread) Done() bool { return t.done }

// FinishedAt returns the thread's exit time.
func (t *MThread) FinishedAt() sim.Time { return t.finishedAt }

// WorkDone returns the nominal compute completed.
func (t *MThread) WorkDone() sim.Time { return t.workDone }

// SpinTime returns CPU time burned spinning.
func (t *MThread) SpinTime() sim.Time { return t.spinTime }

// spinning reports whether the thread is in a spin state.
func (t *MThread) spinning() bool {
	return t.spinLock != nil || t.spinBarrier != nil || t.spinFlag != nil
}

// SpawnOpts configures thread creation within a process.
type SpawnOpts struct {
	// Name labels the thread; defaults to the proc name.
	Name string
	// Nice is the thread's niceness.
	Nice int
	// Affinity restricts allowed cores (zero value: all cores).
	Affinity sched.CPUSet
	// Parent is the forking thread: the new thread starts on the
	// parent's core ("Linux spawns threads on the same core as their
	// parent thread", §3.2). Nil starts on the first allowed core.
	Parent *MThread
	// Script supplies the durations of the program's Scripted compute
	// and sleep instructions, one entry per execution, in order. The
	// thread keeps the slice: it must not change after the spawn.
	Script []sim.Time
}

// Spawn creates and starts a thread executing prog inside p, using fork
// placement (the parent's core, or the first allowed core).
func (p *Proc) Spawn(prog Program, opts SpawnOpts) *MThread {
	mt := p.newThread(prog, opts)
	if opts.Parent != nil {
		p.m.Sched.StartThread(mt.T, opts.Parent.T)
	} else {
		p.m.Sched.StartThread(mt.T, nil)
	}
	return mt
}

// SpawnOn creates and starts a thread on a specific core.
func (p *Proc) SpawnOn(core topology.CoreID, prog Program, opts SpawnOpts) *MThread {
	mt := p.newThread(prog, opts)
	p.m.Sched.StartThreadOn(mt.T, core)
	return mt
}

func (p *Proc) newThread(prog Program, opts SpawnOpts) *MThread {
	name := opts.Name
	if name == "" {
		name = p.name
	}
	st := p.m.Sched.NewThread(name, sched.ThreadOpts{
		Nice:     opts.Nice,
		Group:    p.group,
		Affinity: opts.Affinity,
	})
	mt := &MThread{
		T:      st,
		proc:   p,
		prog:   prog,
		script: opts.Script,
	}
	m := p.m
	mt.bindCallbacks(m)
	p.m.threads[st.ID()] = mt
	p.threads = append(p.threads, mt)
	p.alive++
	return mt
}

// bindCallbacks (re)binds the thread's compute timer and pre-bound engine
// callbacks to m. Called at creation and again on a machine fork, where
// the clone's callbacks must target the cloned machine and thread.
func (mt *MThread) bindCallbacks(m *Machine) {
	mt.computeTm = m.Eng.NewTimer(func() { m.computeFire(mt) })
	mt.resumeCb = func(epoch uint64) { m.vmResume(mt, epoch) }
	mt.deferCb = func(epoch uint64) { m.deferFire(mt, epoch) }
	mt.sleepCb = func(uint64) { m.Sched.Wake(mt.T, nil) }
	mt.btimeoutCb = func(gen uint64) {
		if b := mt.spinBarrier; b != nil {
			m.barrierSpinTimeout(mt, b, gen)
		}
	}
}

// threadExited records a thread exit and completes the process when the
// last thread leaves.
func (p *Proc) threadExited(t *MThread) {
	p.alive--
	if p.alive == 0 && !p.done {
		p.done = true
		p.finishedAt = p.m.Eng.Now()
		if p.onDone != nil {
			p.onDone(p)
		}
	}
}
