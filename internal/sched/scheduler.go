// Package sched implements the paper's subject and primary contribution: a
// faithful model of Linux's Completely Fair Scheduler on multicore NUMA
// machines — per-core runqueues ordered by vruntime (§2.1), decayed load
// tracking with autogroup division (§2.2.1), hierarchical scheduling
// domains and groups (Figure 1), the load-balancing algorithm of
// Algorithm 1 with its periodic, newly-idle and NOHZ variants (§2.2.2),
// and cache-affine wakeup placement — together with the paper's four
// performance bugs and their fixes, each selectable through
// Config.Features:
//
//   - Group Imbalance (§3.1): average- vs minimum-load group comparison.
//   - Scheduling Group Construction (§3.2): Core-0- vs per-core-perspective
//     group construction.
//   - Overload-on-Wakeup (§3.3): node-local vs longest-idle wakeup
//     placement.
//   - Missing Scheduling Domains (§3.4): dropped vs restored cross-node
//     domain regeneration after hotplug.
//
// The scheduler runs entirely inside a deterministic discrete-event
// simulation (package sim); workloads drive it through the thread
// lifecycle API (StartThread, Wake, BlockCurrent, ExitCurrent) and observe
// context switches through the Hooks interface.
package sched

import (
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// StopReason tells Hooks.ThreadStopped why a thread left the CPU.
type StopReason int

// Stop reasons.
const (
	// StopPreempted: still runnable, placed back on the runqueue.
	StopPreempted StopReason = iota
	// StopBlocked: blocked on a timer or resource via BlockCurrent.
	StopBlocked
	// StopExited: exited via ExitCurrent.
	StopExited
	// StopHotplug: the core was taken offline.
	StopHotplug
)

// Hooks receives thread execution transitions. The workload layer uses
// them to run its virtual programs: ThreadStarted begins consuming the
// thread's current instruction, ThreadStopped pauses it.
type Hooks interface {
	ThreadStarted(cpu topology.CoreID, t *Thread)
	ThreadStopped(cpu topology.CoreID, t *Thread, reason StopReason)
}

// nopHooks is used until the caller installs real hooks.
type nopHooks struct{}

func (nopHooks) ThreadStarted(topology.CoreID, *Thread)             {}
func (nopHooks) ThreadStopped(topology.CoreID, *Thread, StopReason) {}

// Scheduler is the multicore CFS instance.
type Scheduler struct {
	eng      *sim.Engine
	topo     *topology.Topology
	cfg      Config
	cpus     []*CPU
	hooks    Hooks
	recs     []*trace.Recorder // attached recorders that keep events (see emit.go)
	counts   []*trace.Recorder // attached count-only recorders
	policy   PlacementPolicy
	latProbe LatencyProbe
	mx       *Metrics         // observability hooks (nil = disabled, see AttachObs)
	probe    *DivergenceProbe // fix-divergence watcher (nil = disabled, see fork.go)

	// Idle cores form an intrusive doubly-linked list through the CPU
	// structs, ordered by idleSince ascending (head = longest idle, the
	// list §3.3's fix reads). Linking keeps membership O(1) where the
	// old slice paid a linear scan plus shift per transition.
	idleHead, idleTail topology.CoreID // -1 when empty
	nohzBalancer       topology.CoreID // -1 when unassigned

	online CPUSet // cached set of online cores, maintained by hotplug

	threads       []*Thread
	groups        []*TaskGroup
	rootGroup     *TaskGroup
	nextTID       int
	nextGID       int
	started       bool
	domainsBroken bool // a hotplug event occurred (see §3.4)

	counters Counters

	// Balance-pass scratch buffers, reused across calls so the periodic
	// tick path allocates nothing in steady state. The scheduler is
	// single-threaded (one engine), and loadBalance never nests, so one
	// set of buffers suffices.
	gsScratch    []groupStats
	gsGroups     []*groupStats
	stealScratch []*Thread

	// decay caches the load-average decay factor (see decayMemo). It
	// holds a pure function's results, so clones share it: a fork runs
	// on its parent's goroutine.
	decay *decayMemo

	// Work-conservation accounting: integral over time of
	// min(#idle cores, #queued threads), i.e. core-time that the paper's
	// invariant says should have been used. curIdle/curQueued are the
	// always-true running sums, maintained O(1) by occSync at every
	// state transition; idleCount/queuedTotal are the values last
	// *committed* by adjustOccupancy, which is what the integral uses —
	// preserving the original recompute-at-commit semantics exactly.
	wastedCoreTime sim.Time
	wastedStamp    sim.Time
	idleCount      int
	queuedTotal    int
	curIdle        int
	curQueued      int

	// Occupancy masks, kept exact by occSync beside curIdle/curQueued:
	// queuedMask holds the online cores with queued threads, busyMask
	// the online cores with a current or a queued thread. loadBalance
	// reads them to end a pass that cannot steal (noneStealable) without
	// computing any group's statistics.
	queuedMask CPUSet
	busyMask   CPUSet

	// loadGen is the cross-CPU invalidation generation for the per-CPU
	// load caches. It covers ONLY the autogroup divisor (NewThread /
	// ExitCurrent change every group member's load at once); all other
	// load inputs — runqueue membership, the current thread, decayed
	// load averages — change one core at a time and are invalidated
	// per-CPU (occSync / tick set that core's loadAt = -1). Any new
	// input that can change many cores' loads in one step must bump
	// loadGen too. A CPULoad cache hit requires the same virtual time
	// AND generation, so a hit returns exactly what a recompute would
	// (the per-thread load decay is idempotent within an instant). A
	// cache at (now, loadGen) also records that this instant's decay is
	// folded into every thread of the core: the NoBusiest fast path
	// (noBusiest) relies on it to make exactly the folds a full balance
	// pass would.
	loadGen uint64
}

// New creates a Scheduler for the given machine. All cores start online
// and idle.
func New(eng *sim.Engine, topo *topology.Topology, cfg Config) *Scheduler {
	s := &Scheduler{
		eng:          eng,
		topo:         topo,
		cfg:          cfg,
		hooks:        nopHooks{},
		nohzBalancer: -1,
		idleHead:     -1,
		idleTail:     -1,
		decay:        new(decayMemo),
	}
	s.rootGroup = s.NewGroup("root")
	n := topo.NumCores()
	for i := 0; i < n; i++ {
		c := &CPU{
			id:        topology.CoreID(i),
			online:    true,
			idlePrev:  -1,
			idleNext:  -1,
			loadAt:    -1,
			tickPhase: sim.Time(i) * cfg.TickPeriod / sim.Time(n),
		}
		// Per-core timers, bound once: the tick and resched events of a
		// core's whole lifetime reuse these two heap entries instead of
		// allocating an event plus closure per cycle.
		c.tickTm = eng.NewTimer(func() { s.tick(c) })
		c.reschedTm = eng.NewTimer(func() { s.reschedFire(c) })
		s.online.Set(c.id)
		c.occIdle = true // online, no current thread, empty queue
		s.curIdle++
		s.cpus = append(s.cpus, c)
	}
	return s
}

// Engine returns the simulation engine driving this scheduler.
func (s *Scheduler) Engine() *sim.Engine { return s.eng }

// Topology returns the machine description.
func (s *Scheduler) Topology() *topology.Topology { return s.topo }

// Config returns the active configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// SetHooks installs the execution hooks. Must be called before Start.
func (s *Scheduler) SetHooks(h Hooks) {
	if h == nil {
		s.hooks = nopHooks{}
		return
	}
	s.hooks = h
}

// IdleSince returns the virtual instant cpu last went idle. Only
// meaningful while the core is idle (IsIdle); the checker uses it to
// anchor an episode's onset at the moment the idle core stopped
// working, not at the detection that followed.
func (s *Scheduler) IdleSince(cpu topology.CoreID) sim.Time { return s.cpus[cpu].idleSince }

// Start builds the scheduling domains and begins ticking. Idle cores start
// tickless under NOHZ.
func (s *Scheduler) Start() {
	if s.started {
		return
	}
	s.started = true
	s.rebuildDomains()
	now := s.eng.Now()
	s.wastedStamp = now
	for _, c := range s.cpus {
		c.idleSince = now
		s.idleAppend(c)
		if s.cfg.NOHZ {
			c.tickless = true
		} else {
			s.armTick(c)
		}
	}
}

// NewGroup creates a task group (autogroup): "processes that belong to
// different ttys [are assigned] to different cgroups" (§2.2.1).
func (s *Scheduler) NewGroup(name string) *TaskGroup {
	g := &TaskGroup{id: s.nextGID, name: name, divide: true}
	if s.nextGID == 0 {
		g.divide = false // the root group does not divide loads
	}
	s.nextGID++
	s.groups = append(s.groups, g)
	return g
}

// ThreadOpts configures thread creation.
type ThreadOpts struct {
	// Nice is the UNIX niceness, default 0.
	Nice int
	// Group is the autogroup; nil means the root group.
	Group *TaskGroup
	// Affinity restricts the allowed cores (a taskset, §3.2); zero value
	// means all cores.
	Affinity CPUSet
	// InitialLoadZero starts the thread's decayed load at zero instead of
	// the kernel-like "new tasks look heavy" full contribution.
	InitialLoadZero bool
}

// NewThread creates a thread in StateNew. It consumes no CPU until
// StartThread (or StartThreadOn) enqueues it.
func (s *Scheduler) NewThread(name string, opts ThreadOpts) *Thread {
	g := opts.Group
	if g == nil {
		g = s.rootGroup
	}
	aff := opts.Affinity
	if aff.Empty() {
		aff = FullCPUSet(s.topo.NumCores())
	}
	t := &Thread{
		id:       s.nextTID,
		name:     name,
		nice:     opts.Nice,
		wt:       WeightForNice(opts.Nice),
		group:    g,
		state:    StateNew,
		cpu:      -1,
		affinity: aff,
	}
	if !opts.InitialLoadZero {
		t.la.avg = 1.0 // new tasks start with full load, as in the kernel
	}
	t.la.last = s.eng.Now()
	t.spawnedAt = s.eng.Now()
	s.nextTID++
	s.threads = append(s.threads, t)
	g.threads++
	s.loadGen++ // the autogroup divisor changed for g's queued threads
	return t
}

// Threads returns all threads ever created.
func (s *Scheduler) Threads() []*Thread { return s.threads }

// StartThread enqueues a new thread using fork placement: "Linux spawns
// threads on the same core as their parent thread" (§3.2), which is why a
// pinned application's threads all begin on one node. A nil parent places
// the thread on its first allowed core.
func (s *Scheduler) StartThread(t *Thread, parent *Thread) {
	target := t.affinity.And(s.OnlineSet()).First()
	if parent != nil && t.affinity.Has(parent.cpu) && s.cpus[parent.cpu].online {
		target = parent.cpu
	}
	s.StartThreadOn(t, target)
}

// StartThreadOn enqueues a new thread on a specific core (clamped to its
// affinity).
func (s *Scheduler) StartThreadOn(t *Thread, cpu topology.CoreID) {
	if t.state != StateNew {
		panic(fmt.Sprintf("sched: StartThread on %s thread %d", t.state, t.id))
	}
	if cpu < 0 || !t.affinity.Has(cpu) || !s.cpus[cpu].online {
		cpu = t.affinity.And(s.OnlineSet()).First()
		if cpu < 0 {
			panic("sched: thread has no allowed online cpu")
		}
	}
	c := s.cpus[cpu]
	s.counters.Forks++
	s.enqueueThread(c, t, enqFork)
	s.traceLifecycle(trace.KindFork, cpu, t)
	s.traceConsidered(cpu, trace.OpFork, NewCPUSet(cpu))
	if c.idle() || c.curr == nil {
		s.resched(c)
	} else {
		s.checkPreemptWakeup(c, t)
	}
}

// BlockCurrent takes the running thread t off its CPU into Sleeping or
// Blocked state. The caller is responsible for waking it later.
func (s *Scheduler) BlockCurrent(t *Thread, st ThreadState) {
	if st != StateSleeping && st != StateBlocked {
		panic("sched: BlockCurrent state must be Sleeping or Blocked")
	}
	c := s.cpus[t.cpu]
	if c.curr != t {
		panic(fmt.Sprintf("sched: BlockCurrent: thread %d not current on cpu %d", t.id, t.cpu))
	}
	now := s.eng.Now()
	s.updateCurr(c)
	t.state = st
	t.lastRan = now
	t.la.setRunnable(now, false, s.decay)
	c.curr = nil
	s.occSync(c)
	s.adjustOccupancy()
	s.traceNr(c)
	s.traceLoad(c)
	s.hooks.ThreadStopped(c.id, t, StopBlocked)
	s.schedule(c)
}

// ExitCurrent terminates the running thread t.
func (s *Scheduler) ExitCurrent(t *Thread) {
	c := s.cpus[t.cpu]
	if c.curr != t {
		panic(fmt.Sprintf("sched: ExitCurrent: thread %d not current on cpu %d", t.id, t.cpu))
	}
	now := s.eng.Now()
	s.updateCurr(c)
	t.state = StateExited
	t.exitedAt = now
	t.la.setRunnable(now, false, s.decay)
	t.group.threads--
	s.loadGen++ // the autogroup divisor changed for the group's threads
	c.curr = nil
	s.occSync(c)
	s.adjustOccupancy()
	s.traceNr(c)
	s.traceLoad(c)
	s.traceLifecycle(trace.KindExit, c.id, t)
	s.hooks.ThreadStopped(c.id, t, StopExited)
	s.schedule(c)
}

// Wake transitions a Sleeping/Blocked thread to Runnable, choosing its core
// with the wakeup-placement policy (§3.3). waker is the thread performing
// the wakeup, or nil for timer expirations.
func (s *Scheduler) Wake(t *Thread, waker *Thread) {
	if t.state != StateSleeping && t.state != StateBlocked {
		return // already runnable/running: spurious wakeup
	}
	s.counters.Wakeups++
	t.nrWakeups++
	cpu := s.selectTaskRQ(t, waker)
	c := s.cpus[cpu]
	busy := !c.idle()
	if busy {
		t.wokenOnBusyCore++
		s.counters.WakeupsOnBusy++
	} else {
		t.wokenOnIdleCore++
		s.counters.WakeupsOnIdle++
	}
	s.observeWakeupPlaced(t, cpu, busy)
	s.enqueueThread(c, t, enqWakeup)
	if c.curr == nil {
		s.resched(c)
	} else {
		s.checkPreemptWakeup(c, t)
	}
}

// SetAffinity installs a new allowed-cores mask (taskset). If the thread
// is currently on a disallowed core it is migrated at its next scheduling
// boundary (queued threads are moved immediately).
func (s *Scheduler) SetAffinity(t *Thread, set CPUSet) {
	if set.And(s.OnlineSet()).Empty() {
		panic("sched: affinity excludes every online cpu")
	}
	t.affinity = set
	if t.queued && !set.Has(t.cpu) {
		src := s.cpus[t.cpu]
		dst := s.cpus[set.And(s.OnlineSet()).First()]
		s.migrateThread(t, src, dst, trace.OpAffinity)
	} else if t.state == StateRunning && !set.Has(t.cpu) {
		s.resched(s.cpus[t.cpu]) // will be pushed by the next balance
	}
}

// migrateThread moves a queued thread between runqueues, renormalizing its
// vruntime across the two timelines.
func (s *Scheduler) migrateThread(t *Thread, src, dst *CPU, op trace.Op) {
	if !t.queued {
		panic("sched: migrate of non-queued thread")
	}
	src.rq.dequeue(t)
	src.rq.updateMinVruntime(src.curr)
	s.occSync(src)
	t.vruntime -= src.rq.minVruntime
	t.vruntime += dst.rq.minVruntime
	t.cpu = dst.id
	t.nrMigrations++
	s.counters.Migrations++
	s.traceNr(src)
	s.traceLoad(src)
	dst.rq.enqueue(t)
	dst.rq.updateMinVruntime(dst.curr)
	s.occSync(dst)
	s.traceNr(dst)
	s.traceLoad(dst)
	s.traceMigration(t, src.id, dst.id, op)
	if dst.curr == nil {
		s.resched(dst)
	}
}

// OnlineSet returns the set of online cores (maintained incrementally by
// the hotplug paths, so reading it is free).
func (s *Scheduler) OnlineSet() CPUSet { return s.online }

// OnlineCPUs returns the ids of online cores in a new slice; a scan that
// runs often refills its own with OnlineSet().AppendCores.
func (s *Scheduler) OnlineCPUs() []topology.CoreID { return s.OnlineSet().Cores() }

// NrRunning returns rq->nr_running for a core (queued + current).
func (s *Scheduler) NrRunning(cpu topology.CoreID) int { return s.cpus[cpu].nrRunning() }

// Queued returns the number of threads waiting (not running) on cpu.
func (s *Scheduler) Queued(cpu topology.CoreID) int { return s.cpus[cpu].rq.queued() }

// Curr returns the thread running on cpu, or nil.
func (s *Scheduler) Curr(cpu topology.CoreID) *Thread { return s.cpus[cpu].curr }

// IsIdle reports whether cpu has nothing to run.
func (s *Scheduler) IsIdle(cpu topology.CoreID) bool { return s.cpus[cpu].idle() }

// QueuedThreads returns a snapshot of the threads waiting on cpu in
// vruntime order.
func (s *Scheduler) QueuedThreads(cpu topology.CoreID) []*Thread {
	return slices.Clone(s.cpus[cpu].rq.q)
}

// CPULoad returns the load of cpu's runqueue: the sum of the loads of its
// queued and running threads (§2.2.1's per-core load). The sum is
// memoized per (instant, load generation): overlapping scheduling groups
// read the same cores many times per balance pass, and within one
// unchanged instant a recompute is numerically identical (each thread's
// decay was already folded up to now by the computing call).
func (s *Scheduler) CPULoad(cpu topology.CoreID) float64 {
	c := s.cpus[cpu]
	now := s.eng.Now()
	if c.loadAt == now && c.loadGenAt == s.loadGen {
		return c.loadVal
	}
	load := 0.0
	for _, t := range c.rq.q {
		load += t.load(now, s.decay)
	}
	if c.curr != nil {
		load += c.curr.load(now, s.decay)
	}
	c.loadAt = now
	c.loadGenAt = s.loadGen
	c.loadVal = load
	return load
}

// StealOne migrates one waiting thread from src to dst if affinity
// allows, returning whether a thread moved. It is the enforcement tool of
// the §5 core module: restore the work-conserving invariant directly,
// regardless of what the hierarchical balancer believes.
func (s *Scheduler) StealOne(dst, src topology.CoreID) bool {
	if dst == src || !s.cpus[dst].online || !s.cpus[src].online {
		return false
	}
	for _, t := range s.cpus[src].rq.q {
		if t.affinity.Has(dst) {
			s.migrateThread(t, s.cpus[src], s.cpus[dst], trace.OpSteal)
			return true
		}
	}
	return false
}

// CanSteal reports whether dst could legally steal at least one waiting
// thread from src — the affinity check of the sanity checker's Algorithm 2.
func (s *Scheduler) CanSteal(dst, src topology.CoreID) bool {
	if !s.cpus[dst].online || !s.cpus[src].online {
		return false
	}
	for _, t := range s.cpus[src].rq.q {
		if t.affinity.Has(dst) {
			return true
		}
	}
	return false
}

// occSync folds cpu c's current idle/queued contribution into the
// running sums and the occupancy masks after a state transition, and
// invalidates c's load cache (a transition on c never changes another
// core's load sum, so invalidation is per-CPU; the global loadGen
// covers the autogroup divisor, the only cross-CPU load input). O(1);
// called wherever c's runqueue, current thread, or online flag changed,
// which is the one place that keeps the sums and masks exact.
func (s *Scheduler) occSync(c *CPU) {
	c.loadAt = -1
	idle := c.idle()
	if idle != c.occIdle {
		if idle {
			s.curIdle++
		} else {
			s.curIdle--
		}
		c.occIdle = idle
	}
	q := 0
	if c.online {
		q = c.rq.queued()
	}
	s.curQueued += q - c.occQueued
	c.occQueued = q
	if q > 0 {
		s.queuedMask.Set(c.id)
	} else {
		s.queuedMask.Clear(c.id)
	}
	if c.online && !idle {
		s.busyMask.Set(c.id)
	} else {
		s.busyMask.Clear(c.id)
	}
}

// adjustOccupancy integrates wasted core time — min(#idle cores, #queued
// threads) core-seconds accumulate whenever the work-conserving invariant
// is violated — then commits the current totals for the next interval.
// The sums themselves are maintained incrementally by occSync, so the
// commit is O(1) where it used to rescan every core.
func (s *Scheduler) adjustOccupancy() {
	now := s.eng.Now()
	if d := now - s.wastedStamp; d > 0 {
		waste := s.idleCount
		if s.queuedTotal < waste {
			waste = s.queuedTotal
		}
		if waste > 0 {
			s.wastedCoreTime += sim.Time(waste) * d
		}
	}
	s.wastedStamp = now
	s.idleCount = s.curIdle
	s.queuedTotal = s.curQueued
}

// WastedCoreTime returns the accumulated idle-while-work-waiting core time
// — the quantity the paper's invariant says must stay near zero.
func (s *Scheduler) WastedCoreTime() sim.Time {
	s.adjustOccupancy()
	return s.wastedCoreTime
}

// DisableCPU takes a core offline (the /proc interface of §3.4), migrating
// its threads away and regenerating scheduling domains. With the Missing
// Scheduling Domains bug present, the regeneration silently drops every
// node-spanning level.
func (s *Scheduler) DisableCPU(cpu topology.CoreID) error {
	c := s.cpus[cpu]
	if !c.online {
		return fmt.Errorf("sched: cpu %d already offline", cpu)
	}
	c.online = false
	s.online.Clear(cpu)
	s.leaveIdle(c)
	c.tickTm.Stop()
	if s.nohzBalancer == cpu {
		s.nohzBalancer = -1
	}
	// Push the running thread off.
	if t := c.curr; t != nil {
		s.updateCurr(c)
		t.state = StateRunnable
		t.lastRan = s.eng.Now()
		c.curr = nil
		s.hooks.ThreadStopped(c.id, t, StopHotplug)
		s.markWaiting(t, false)
		c.rq.enqueue(t)
	}
	// Drain the runqueue onto allowed online cores, leftmost first.
	for len(c.rq.q) > 0 {
		t := c.rq.q[0]
		dst := t.affinity.And(s.OnlineSet()).First()
		if dst < 0 {
			dst = s.OnlineSet().First() // affinity broken by hotplug
		}
		s.migrateThread(t, c, s.cpus[dst], trace.OpHotplug)
		s.counters.HotplugMigrations++
	}
	s.occSync(c)
	s.adjustOccupancy()
	s.domainsBroken = true
	s.rebuildDomains()
	return nil
}

// EnableCPU brings a core back online and regenerates the scheduling
// domains (§3.4).
func (s *Scheduler) EnableCPU(cpu topology.CoreID) error {
	c := s.cpus[cpu]
	if c.online {
		return fmt.Errorf("sched: cpu %d already online", cpu)
	}
	c.online = true
	s.online.Set(cpu)
	c.rq.minVruntime = 0
	now := s.eng.Now()
	c.idleSince = now
	s.idleAppend(c)
	if s.cfg.NOHZ {
		c.tickless = true
	} else {
		s.armTick(c)
	}
	s.occSync(c)
	s.adjustOccupancy()
	s.rebuildDomains()
	return nil
}

// Counters returns a copy of the scheduler's event counters.
func (s *Scheduler) Counters() Counters { return s.counters }
