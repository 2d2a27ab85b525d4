package sched

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// CPU is the scheduler's per-core state: the running thread, the local
// runqueue ("Scalability concerns dictate using per-core runqueues",
// §2.2), the core's private view of the scheduling-domain hierarchy, and
// tick/balance bookkeeping.
type CPU struct {
	id     topology.CoreID
	rq     cfsRQ
	curr   *Thread
	online bool

	// accounting
	accruedUpTo sim.Time // curr's exec time folded in up to here

	// idle state: links of the scheduler's idle list (idleSince
	// ascending), -1 when not linked.
	idleSince sim.Time
	idlePrev  topology.CoreID
	idleNext  topology.CoreID
	inIdle    bool
	tickless  bool // NOHZ: idle and not ticking

	// ticking and rescheduling: persistent per-core timers, re-armed in
	// place (no allocation per cycle), and the core's offset on the
	// staggered tick grid (see nextTickAt).
	tickTm    *sim.Timer
	reschedTm *sim.Timer
	tickPhase sim.Time

	// domains and balancing
	domains        []*Domain
	nextBalance    []sim.Time
	balanceFailed  []int // consecutive failed balances per level
	pinnedFailure  bool  // last steal attempt from this rq failed due to tasksets
	reschedPending bool

	// Occupancy contributions folded into the scheduler's running sums
	// (see occSync).
	occIdle   bool
	occQueued int

	// CPULoad memoization: valid while (loadAt, loadGenAt) matches the
	// current instant and load generation.
	loadAt    sim.Time
	loadGenAt uint64
	loadVal   float64
}

// nrRunning mirrors the kernel's rq->nr_running: queued plus current.
func (c *CPU) nrRunning() int {
	n := c.rq.queued()
	if c.curr != nil {
		n++
	}
	return n
}

// idle reports whether the core has nothing to run.
func (c *CPU) idle() bool { return c.online && c.curr == nil && c.rq.queued() == 0 }

// updateCurr folds the running thread's elapsed time into its vruntime and
// execution totals.
func (s *Scheduler) updateCurr(c *CPU) {
	t := c.curr
	if t == nil {
		return
	}
	now := s.eng.Now()
	delta := now - c.accruedUpTo
	if delta <= 0 {
		return
	}
	c.accruedUpTo = now
	t.sumExec += delta
	t.vruntime += t.deltaVruntime(delta)
	c.rq.updateMinVruntime(t)
}

// sliceFor computes the thread's timeslice: the scheduling period divided
// proportionally to weight (§2.1), stretched when the runqueue exceeds
// NrLatency threads.
func (s *Scheduler) sliceFor(c *CPU, t *Thread) sim.Time {
	nr := c.rq.queued() + 1
	period := s.cfg.Latency
	if nr > s.cfg.NrLatency {
		period = sim.Time(nr) * s.cfg.MinGranularity
	}
	total := c.rq.queuedWt
	if c.curr != nil {
		total += c.curr.wt
	}
	if !t.queued && t != c.curr {
		total += t.wt
	}
	if total <= 0 {
		return period
	}
	slice := sim.Time(float64(period) * float64(t.wt) / float64(total))
	if slice < s.cfg.MinGranularity {
		slice = s.cfg.MinGranularity
	}
	return slice
}

// resched requests a context switch on c, deferred to an immediate event so
// in-flight enqueue/balance operations complete before curr changes.
func (s *Scheduler) resched(c *CPU) {
	if c.reschedPending {
		return
	}
	c.reschedPending = true
	c.reschedTm.ResetAfter(0)
}

// reschedFire is the deferred context-switch body (c.reschedTm's
// callback).
func (s *Scheduler) reschedFire(c *CPU) {
	c.reschedPending = false
	if !c.online {
		return
	}
	if c.curr != nil || c.rq.queued() > 0 {
		s.schedule(c)
	}
}

// schedule is the context switch: put the previous thread back on the
// timeline if it is still runnable, pick the leftmost thread ("the thread
// with the smallest vruntime", §2.1), and fall back to newidle balancing
// ("emergency load balancing when a core becomes idle", §2.2) before going
// idle.
func (s *Scheduler) schedule(c *CPU) {
	now := s.eng.Now()
	prev := c.curr
	if prev != nil {
		s.updateCurr(c)
		prev.state = StateRunnable
		prev.lastRan = now
		c.curr = nil
		s.markWaiting(prev, false)
		c.rq.enqueue(prev)
		s.occSync(c)
		s.adjustOccupancy()
	}
	next := c.rq.leftmost()
	if next == nil {
		s.newIdleBalance(c)
		next = c.rq.leftmost()
	}
	if next == nil {
		s.goIdle(c)
		return
	}
	if next == prev {
		// prev is still the fairest choice: keep it running without
		// bouncing it through the hooks (its pending work events stay
		// valid). The stint restarts, as with the kernel's
		// set_next_entity. The zero-length wait span is discarded — no
		// context switch happened, so there is no latency to witness.
		c.rq.dequeue(prev)
		prev.state = StateRunning
		prev.waiting = false
		c.curr = prev
		c.accruedUpTo = now
		prev.execStart = now
		s.occSync(c)
		s.adjustOccupancy()
		return
	}
	if prev != nil {
		prev.nrPreempted++
		s.counters.Preemptions++
		s.hooks.ThreadStopped(c.id, prev, StopPreempted)
	}
	c.rq.dequeue(next)
	s.occSync(c)
	s.adjustOccupancy()
	s.startThread(c, next)
}

// startThread makes t current on c.
func (s *Scheduler) startThread(c *CPU, t *Thread) {
	now := s.eng.Now()
	if c.curr != nil {
		panic("sched: startThread on busy cpu")
	}
	s.leaveIdle(c)
	s.observeWaitEnd(c, t)
	c.curr = t
	c.accruedUpTo = now
	t.state = StateRunning
	t.cpu = c.id
	t.execStart = now
	t.la.setRunnable(now, true, s.decay)
	s.counters.Switches++
	s.occSync(c)
	s.adjustOccupancy()
	if s.nohzBalancer == c.id {
		s.nohzBalancer = -1 // the balancer found work; role lapses
	}
	s.armTick(c)
	s.hooks.ThreadStarted(c.id, t)
}

// goIdle transitions c to idle, appending it to the system idle list (the
// kernel's list the OoW fix reads: "picking the first one (this is the one
// that has been idle the longest) takes constant time", §3.3). Under NOHZ
// the core goes tickless (§2.2.2).
func (s *Scheduler) goIdle(c *CPU) {
	now := s.eng.Now()
	c.curr = nil
	c.idleSince = now
	s.idleAppend(c)
	s.occSync(c)
	s.adjustOccupancy()
	if s.cfg.NOHZ && s.nohzBalancer != c.id {
		c.tickless = true
		c.tickTm.Stop()
	}
}

// leaveIdle removes c from the idle list.
func (s *Scheduler) leaveIdle(c *CPU) {
	c.tickless = false
	s.idleRemove(c)
}

// idleAppend links c at the tail of the idle list (it just became idle,
// so it has been idle the shortest). O(1); a no-op when already linked.
func (s *Scheduler) idleAppend(c *CPU) {
	if c.inIdle {
		return
	}
	c.inIdle = true
	c.idlePrev, c.idleNext = s.idleTail, -1
	if s.idleTail >= 0 {
		s.cpus[s.idleTail].idleNext = c.id
	} else {
		s.idleHead = c.id
	}
	s.idleTail = c.id
}

// idleRemove unlinks c from the idle list. O(1); a no-op when not linked.
func (s *Scheduler) idleRemove(c *CPU) {
	if !c.inIdle {
		return
	}
	c.inIdle = false
	if c.idlePrev >= 0 {
		s.cpus[c.idlePrev].idleNext = c.idleNext
	} else {
		s.idleHead = c.idleNext
	}
	if c.idleNext >= 0 {
		s.cpus[c.idleNext].idlePrev = c.idlePrev
	} else {
		s.idleTail = c.idlePrev
	}
	c.idlePrev, c.idleNext = -1, -1
}

// idleOrder snapshots the idle list head-to-tail (longest idle first) —
// for tests and debugging; hot paths walk the links directly.
func (s *Scheduler) idleOrder() []topology.CoreID {
	var out []topology.CoreID
	for id := s.idleHead; id >= 0; id = s.cpus[id].idleNext {
		out = append(out, id)
	}
	return out
}

// nextTickAt returns the next tick boundary for c on its staggered grid
// (each core's tick is offset within the period by c.tickPhase, like
// real timer interrupts).
func (s *Scheduler) nextTickAt(c *CPU) sim.Time {
	period := s.cfg.TickPeriod
	phase := c.tickPhase
	now := s.eng.Now()
	n := (now-phase)/period + 1
	if phase+n*period <= now {
		n++
	}
	return phase + n*period
}

// armTick ensures a tick event is pending for c, re-arming the core's
// persistent tick timer in place.
func (s *Scheduler) armTick(c *CPU) {
	if c.tickTm.Pending() || !c.online {
		return
	}
	c.tickTm.Reset(s.nextTickAt(c))
}

// tick is the periodic clock interrupt: account the running thread, check
// tick preemption, trigger periodic load balancing, and manage the NOHZ
// balancer role (§2.2.2).
func (s *Scheduler) tick(c *CPU) {
	if !c.online {
		return
	}
	now := s.eng.Now()
	if c.curr != nil {
		s.updateCurr(c)
		c.curr.la.advance(now, s.decay)
		c.loadAt = -1 // the advance may change curr's decayed load
		s.checkPreemptTick(c)
	}
	s.periodicBalance(c)

	if s.cfg.NOHZ {
		if c.curr != nil {
			// Overloaded cores kick a tickless idle core to take the
			// NOHZ balancer role.
			if c.nrRunning() >= 2 {
				s.maybeKickNohzBalancer()
			}
		} else if s.nohzBalancer == c.id {
			// Balance on behalf of every tickless idle core.
			s.nohzBalanceAll(c)
			if !s.anyTicklessIdle() {
				s.nohzBalancer = -1
				c.tickless = true
				return // stop ticking
			}
		} else if c.idle() {
			// Idle, not the balancer: go tickless.
			c.tickless = true
			return
		}
	}
	s.armTick(c)
}

// checkPreemptTick mirrors the kernel's check_preempt_tick: preempt when
// the stint exceeded the slice, or when a queued thread has fallen a full
// slice behind — "Once a thread's vruntime exceeds its assigned timeslice,
// the thread is pre-empted" (§2.1).
func (s *Scheduler) checkPreemptTick(c *CPU) {
	if c.rq.queued() == 0 {
		return
	}
	t := c.curr
	slice := s.sliceFor(c, t)
	ran := s.eng.Now() - t.execStart
	if ran > slice {
		s.resched(c)
		return
	}
	if ran < s.cfg.MinGranularity {
		return
	}
	if lm := c.rq.leftmost(); lm != nil && t.vruntime-lm.vruntime > slice {
		s.resched(c)
	}
}

// enqueueFlags selects vruntime placement on enqueue.
type enqueueFlag int

const (
	enqFork enqueueFlag = iota
	enqWakeup
	enqMigrate
)

// enqueueThread inserts t into c's runqueue with the appropriate vruntime
// placement, emits trace events, and returns after updating occupancy.
func (s *Scheduler) enqueueThread(c *CPU, t *Thread, flag enqueueFlag) {
	now := s.eng.Now()
	switch flag {
	case enqFork:
		if t.vruntime < c.rq.minVruntime {
			t.vruntime = c.rq.minVruntime
		}
	case enqWakeup:
		// GENTLE_FAIR_SLEEPERS: sleepers get at most half a latency
		// period of credit.
		if floor := c.rq.minVruntime - s.cfg.Latency/2; t.vruntime < floor {
			t.vruntime = floor
		}
	case enqMigrate:
		// vruntime was renormalized by the caller (detach/attach).
	}
	if flag != enqMigrate {
		// Migration continues an existing wait span; fork and wakeup
		// start one.
		s.markWaiting(t, flag == enqWakeup)
	}
	t.state = StateRunnable
	t.cpu = c.id
	t.la.setRunnable(now, true, s.decay)
	c.rq.enqueue(t)
	c.rq.updateMinVruntime(c.curr)
	s.occSync(c)
	s.adjustOccupancy()
	s.traceNr(c)
	s.traceLoad(c)
}

// checkPreemptWakeup decides whether a newly enqueued wakee preempts c's
// current thread.
func (s *Scheduler) checkPreemptWakeup(c *CPU, wakee *Thread) {
	if c.curr == nil {
		s.resched(c)
		return
	}
	s.updateCurr(c)
	gran := wakee.deltaVruntime(s.cfg.WakeupGranularity)
	if c.curr.vruntime-wakee.vruntime > gran {
		s.counters.WakeupPreemptions++
		s.resched(c)
	}
}
