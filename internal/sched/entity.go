package sched

import (
	"math"

	"repro/internal/sim"
	"repro/internal/topology"
)

// ThreadState is the lifecycle state of a thread as the scheduler sees it.
// Spinning on a lock is not a scheduler state: a spinning thread is Running
// (that is precisely why lock-holder preemption wastes cores, §3.2).
type ThreadState int

// Thread states.
const (
	// StateNew: created, never enqueued.
	StateNew ThreadState = iota
	// StateRunnable: waiting in a runqueue.
	StateRunnable
	// StateRunning: current on some CPU.
	StateRunning
	// StateSleeping: blocked on a timer (will be woken by the clock).
	StateSleeping
	// StateBlocked: blocked on a resource (lock queue, I/O, condition);
	// will be woken by another thread — the waker (§2.2.2).
	StateBlocked
	// StateExited: finished.
	StateExited
)

// String names the state.
func (s ThreadState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateBlocked:
		return "blocked"
	case StateExited:
		return "exited"
	default:
		return "invalid"
	}
}

// loadHalfLife is the decay half-life of the runnable-average: a thread's
// contribution to load halves every 32ms of non-runnable time, matching the
// kernel's per-entity load-tracking decay series (y^32 = 1/2).
const loadHalfLife = 32 * sim.Millisecond

// loadAvg tracks the decayed average runnable fraction of a thread in
// [0,1]. Combined with the weight and the autogroup divisor it yields the
// "load" metric of §2.2.1: "the combination of the thread's weight and its
// average CPU utilization. If a thread does not use much of a CPU, its load
// will be decreased accordingly."
type loadAvg struct {
	avg      float64
	last     sim.Time
	runnable bool
}

// advance folds the elapsed interval into the average, taking the
// decay factor from m.
func (l *loadAvg) advance(now sim.Time, m *decayMemo) {
	d := now - l.last
	if d <= 0 {
		return
	}
	l.last = now
	k := m.factor(d)
	target := 0.0
	if l.runnable {
		target = 1.0
	}
	l.avg = l.avg*k + target*(1-k)
}

// setRunnable updates the tracked state at time now.
func (l *loadAvg) setRunnable(now sim.Time, runnable bool, m *decayMemo) {
	l.advance(now, m)
	l.runnable = runnable
}

// decayFactor is the fraction of a load average that survives d of
// elapsed time: 2^(-d/loadHalfLife).
func decayFactor(d sim.Time) float64 {
	return math.Exp2(-float64(d) / float64(loadHalfLife))
}

// decayMemo caches decayFactor by elapsed time. Folds happen at every
// tick and balance pass, and their elapsed times repeat (multiples of
// the tick period, the same gap seen by every thread of a core), so a
// small direct-mapped table catches most of them. The same input gives
// the same float, so a hit returns exactly what a recompute would. A
// slot whose elapsed time is 0 is empty: advance never asks for d <= 0.
type decayMemo [1 << decayBits]struct {
	d sim.Time
	k float64
}

// decayBits sizes the memo: 64 slots (1 KB) hit about 85% of a
// scenario's folds from a cold start.
const decayBits = 6

// decaySlot is d's slot in the memo, a multiplicative (Fibonacci) hash:
// a plain d mod 64 would send every multiple of the 1 ms tick to slot 0.
func decaySlot(d sim.Time) uint64 { return uint64(d) * 0x9E3779B97F4A7C15 >> (64 - decayBits) }

// factor returns decayFactor(d) for d > 0.
func (m *decayMemo) factor(d sim.Time) float64 {
	e := &m[decaySlot(d)]
	if e.d == d {
		if checkFastPaths {
			verifyDecayHit(d, e.k)
		}
		return e.k
	}
	e.d, e.k = d, decayFactor(d)
	return e.k
}

// Thread is a schedulable entity. Fields are maintained by the Scheduler;
// external packages read them through accessor methods and mutate them only
// through Scheduler calls (Wake, BlockCurrent, SetAffinity, ...).
type Thread struct {
	id    int
	name  string
	nice  int
	wt    int64 // weight derived from nice
	group *TaskGroup

	state    ThreadState
	cpu      topology.CoreID // where running, or last ran
	affinity CPUSet

	vruntime  sim.Time // weighted virtual runtime (§2.1)
	sumExec   sim.Time // total CPU time consumed
	execStart sim.Time // start of the current on-CPU stint
	lastRan   sim.Time // last time it was descheduled (cache hotness)
	la        loadAvg

	onRQ   rqHandle // handle into the runqueue tree when queued
	queued bool

	// Runqueue-wait span tracking for the latency probe: waitSince marks
	// when the thread last became runnable (migrations do not restart
	// it), waitWakeup whether that transition was a wakeup.
	waitSince  sim.Time
	waitWakeup bool
	waiting    bool

	// Counters for tests and experiment reports.
	nrMigrations     uint64
	nrWakeups        uint64
	nrPreempted      uint64
	wokenOnBusyCore  uint64
	wokenOnIdleCore  uint64
	spawnedAt        sim.Time
	exitedAt         sim.Time
	migrationsPulled uint64
}

// ID returns the thread id (unique per Scheduler).
func (t *Thread) ID() int { return t.id }

// Name returns the human-readable name given at creation.
func (t *Thread) Name() string { return t.name }

// Nice returns the thread's nice value.
func (t *Thread) Nice() int { return t.nice }

// Weight returns the thread's scheduling weight.
func (t *Thread) Weight() int64 { return t.wt }

// Group returns the thread's autogroup.
func (t *Thread) Group() *TaskGroup { return t.group }

// State returns the current lifecycle state.
func (t *Thread) State() ThreadState { return t.state }

// CPU returns the core the thread is running on, or last ran on.
func (t *Thread) CPU() topology.CoreID { return t.cpu }

// Affinity returns the thread's allowed-cores mask.
func (t *Thread) Affinity() CPUSet { return t.affinity }

// Vruntime returns the thread's virtual runtime.
func (t *Thread) Vruntime() sim.Time { return t.vruntime }

// SumExec returns total CPU time consumed.
func (t *Thread) SumExec() sim.Time { return t.sumExec }

// Migrations returns how many times the thread changed cores.
func (t *Thread) Migrations() uint64 { return t.nrMigrations }

// Wakeups returns how many times the thread was woken.
func (t *Thread) Wakeups() uint64 { return t.nrWakeups }

// WokenOnBusyCore counts wakeups placed on a core that already had running
// or queued threads — the symptom of the Overload-on-Wakeup bug (§3.3).
func (t *Thread) WokenOnBusyCore() uint64 { return t.wokenOnBusyCore }

// WokenOnIdleCore counts wakeups placed on an idle core.
func (t *Thread) WokenOnIdleCore() uint64 { return t.wokenOnIdleCore }

// load returns this entity's contribution to its runqueue's load:
// weight x decayed runnable fraction / autogroup divisor. With autogrouping
// "the thread's load is also divided by the number of threads in the
// parent autogroup" (§3.1) — a thread in a 64-thread make has a load
// roughly 64x smaller than a single-threaded R process.
func (t *Thread) load(now sim.Time, m *decayMemo) float64 {
	t.la.advance(now, m)
	div := 1
	if t.group != nil && t.group.divide {
		if n := t.group.NumThreads(); n > 1 {
			div = n
		}
	}
	return float64(t.wt) * t.la.avg / float64(div)
}

// deltaVruntime converts real exec time into weighted vruntime: "runtime of
// the thread divided by its weight" (§2.1), scaled so nice-0 runs at 1:1.
func (t *Thread) deltaVruntime(d sim.Time) sim.Time {
	if t.wt == NICE0Load {
		return d
	}
	return sim.Time(float64(d) * float64(NICE0Load) / float64(t.wt))
}
