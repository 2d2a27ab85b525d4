package sched

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// This file implements the paper's Algorithm 1 (simplified load balancing
// algorithm) with its three entry points: periodic balancing on the clock
// tick, "emergency" newly-idle balancing, and NOHZ balancing on behalf of
// tickless idle cores (§2.2.1–2.2.2). The Group Imbalance bug and its fix
// (§3.1) live in the scheduling-group comparison: the buggy kernel
// compares group *average* loads, which lets one high-load thread conceal
// idle cores on its node; the fix compares group *minimum* loads.

// groupStats aggregates one scheduling group for a balancing decision
// (the kernel's update_sg_lb_stats).
type groupStats struct {
	set        CPUSet
	sumLoad    float64
	minLoad    float64
	avgLoad    float64
	nrRunning  int // running + queued over the group
	nrQueued   int // queued only: what is actually stealable
	weight     int // number of online cores
	hasIdle    bool
	imbalanced bool // a steal from this group recently failed on tasksets
}

// metric returns the comparison value of the group: average load with the
// bug present, minimum load with the fix (§3.1: "Instead of comparing the
// average loads, we compare the minimum loads").
func (s *Scheduler) metric(g *groupStats) float64 {
	return metricWith(g, s.cfg.Features.Has(FixGroupImbalance))
}

// metricWith is metric with the group-imbalance flag given explicitly, so
// the divergence probe can evaluate the comparison the flipped flag would
// have made.
func metricWith(g *groupStats, giFixed bool) float64 {
	if giFixed {
		return g.minLoad
	}
	return g.avgLoad
}

// computeGroupStats gathers statistics for one scheduling group into a
// caller-provided struct (hot path: the balance pass reuses scratch
// storage, iterates the set's bits without a per-core closure call,
// reads each core's runqueue once, and takes the memoized load directly
// when the cache is current). Its one effect on the model is the
// CPULoad read of a core whose cache is stale, which folds the load
// averages of that core's threads up to now; a pass that skips the
// statistics (noBusiest) must make the same folds.
func (s *Scheduler) computeGroupStats(g *groupStats, set CPUSet) {
	*g = groupStats{set: set, minLoad: -1}
	now := s.eng.Now()
	gen := s.loadGen
	for w := 0; w < 2; w++ {
		b := set.bits[w]
		for b != 0 {
			id := topology.CoreID(w*64 + bits.TrailingZeros64(b))
			b &= b - 1
			c := s.cpus[id]
			if !c.online {
				continue
			}
			g.weight++
			var load float64
			if c.loadAt == now && c.loadGenAt == gen {
				load = c.loadVal
			} else {
				load = s.CPULoad(id)
			}
			g.sumLoad += load
			if g.minLoad < 0 || load < g.minLoad {
				g.minLoad = load
			}
			q := c.rq.queued()
			running := q
			if c.curr != nil {
				running++
			}
			g.nrRunning += running
			g.nrQueued += q
			if running == 0 {
				g.hasIdle = true // online with nothing queued or running
			}
			if c.pinnedFailure {
				g.imbalanced = true
			}
		}
	}
	if g.weight > 0 {
		g.avgLoad = g.sumLoad / float64(g.weight)
	}
	if g.minLoad < 0 {
		g.minLoad = 0
	}
}

// designatedCPU returns the core responsible for balancing domain d on
// behalf of c's scheduling group: the first idle core of the local group,
// or its first core when none is idle. Algorithm 1 (lines 2–9) states this
// as "the first idle core of the scheduling domain"; with per-core
// overlapping NUMA domains the kernel's should_we_balance scopes the check
// to the balancing core's own group (group_balance_cpu), which is what we
// implement — otherwise domains seen only by remote cores would never be
// balanced. An online core is idle exactly when it is outside busyMask,
// which occSync keeps exact at every transition.
func (s *Scheduler) designatedCPU(c *CPU, d *Domain) topology.CoreID {
	if d.local < 0 {
		return -1
	}
	id := d.localMask.And(s.online).AndNot(s.busyMask).First()
	if id < 0 {
		id = d.localMask.First()
	}
	if checkFastPaths {
		s.verifyDesignated(c, d, id)
	}
	return id
}

// balanceInterval returns the effective re-balance interval for c at
// domain d: idle cores retry every tick (the kernel keeps sd->balance_
// interval at its minimum when idle and multiplies it by busy_factor when
// busy), busy cores use the stretched per-level interval.
func (s *Scheduler) balanceInterval(c *CPU, d *Domain) sim.Time {
	if c.idle() {
		return s.cfg.TickPeriod
	}
	return d.Interval
}

// periodicBalance runs Algorithm 1 for every due domain level of cpu,
// honoring the designated-core optimization.
func (s *Scheduler) periodicBalance(c *CPU) {
	if s.cfg.DisableBalance {
		return
	}
	now := s.eng.Now()
	for li, d := range c.domains {
		if li >= len(c.nextBalance) {
			break
		}
		if now < c.nextBalance[li] {
			continue
		}
		c.nextBalance[li] = now + s.balanceInterval(c, d)
		if s.designatedCPU(c, d) != c.id {
			continue // lines 7–9: not our job at this level
		}
		s.counters.PeriodicBalanceCalls++
		s.loadBalance(c, d, li, trace.OpPeriodicBalance)
	}
}

// newIdleBalance is the "emergency" balance a core runs as it is about to
// go idle (§2.2): walk the domains bottom-up and stop at the first level
// that yields work.
func (s *Scheduler) newIdleBalance(c *CPU) {
	if s.cfg.DisableBalance {
		return
	}
	s.counters.NewIdleBalanceCalls++
	for li, d := range c.domains {
		if s.loadBalance(c, d, li, trace.OpNewIdleBalance) > 0 {
			return
		}
	}
}

// maybeKickNohzBalancer assigns the NOHZ balancer role to a tickless idle
// core (§2.2.2): "it wakes up the first tickless idle core and assigns it
// the role of NOHZ balancer".
func (s *Scheduler) maybeKickNohzBalancer() {
	if s.nohzBalancer >= 0 {
		return
	}
	for _, c := range s.cpus {
		if c.online && c.tickless && c.idle() {
			s.nohzBalancer = c.id
			s.counters.NohzKicks++
			c.tickless = false
			s.armTick(c) // it will balance at its next tick
			return
		}
	}
}

// anyTicklessIdle reports whether any core is currently tickless idle.
func (s *Scheduler) anyTicklessIdle() bool {
	for _, c := range s.cpus {
		if c.online && c.tickless && c.idle() {
			return true
		}
	}
	return false
}

// nohzBalanceAll runs periodic balancing on behalf of every tickless idle
// core (§2.2.2): "The NOHZ balancer core is responsible, on each tick, to
// run the periodic load balancing routine for itself and on behalf of all
// tickless idle cores."
func (s *Scheduler) nohzBalanceAll(self *CPU) {
	if s.cfg.DisableBalance {
		return
	}
	s.counters.NohzBalancePasses++
	for _, c := range s.cpus {
		if c == self || !c.online || !c.tickless || !c.idle() {
			continue
		}
		now := s.eng.Now()
		for li, d := range c.domains {
			if li >= len(c.nextBalance) {
				break
			}
			if now < c.nextBalance[li] {
				continue
			}
			c.nextBalance[li] = now + s.balanceInterval(c, d)
			if s.designatedCPU(c, d) != c.id {
				continue
			}
			s.loadBalance(c, d, li, trace.OpNohzBalance)
		}
	}
}

// loadBalance is the core of Algorithm 1 (lines 10–23) for one domain
// level: compute group statistics, pick the busiest group, compare with
// the local group, and steal from the busiest core of that group —
// retrying with exclusion when tasksets prevent migration (lines 20–22).
// It returns the number of threads pulled to c. A pass that cannot
// steal, because no group but the local one has a queued thread, ends
// early in noBusiest with the same effects and records.
func (s *Scheduler) loadBalance(c *CPU, d *Domain, level int, op trace.Op) int {
	s.counters.BalanceCalls++
	s.traceConsidered(c.id, op, d.Span)
	if s.noneStealable(d) {
		s.noBusiest(c, d, op)
		return 0
	}

	groups, local, _ := s.collectGroupStats(c, d)
	if local == nil {
		return 0
	}

	// Line 13: prefer overloaded groups, then taskset-imbalanced groups,
	// then simply the highest-metric group. Only groups with queued
	// threads can yield a steal. When the divergence probe watches the
	// group-imbalance flag, every metric-dependent step is recomputed
	// under the flipped flag; any difference in the chosen group, the
	// balanced verdict, or the amount to move fires the probe.
	gi := s.cfg.Features.Has(FixGroupImbalance)
	probeGI := s.probe.Watching(FixGroupImbalance)
	busiest := s.pickBusiestGroup(groups, local, gi)
	if probeGI && s.pickBusiestGroup(groups, local, !gi) != busiest {
		s.probe.Fired |= FixGroupImbalance
		probeGI = false
	}
	if busiest == nil {
		s.traceBalance(c, op, trace.VerdictNoBusiest, local, nil, 0)
		return 0
	}
	// Lines 15–16: balanced at this level.
	balanced := metricWith(busiest, gi) <= metricWith(local, gi)
	if probeGI && (metricWith(busiest, !gi) <= metricWith(local, !gi)) != balanced {
		s.probe.Fired |= FixGroupImbalance
		probeGI = false
	}
	if balanced {
		s.traceBalance(c, op, trace.VerdictBalanced, local, busiest, 0)
		return 0
	}

	// How much load to move: half the average-load gap (the fix changes
	// the comparison, not the quantity — §3.1: computing min and average
	// "have the same cost").
	imbalance := (busiest.avgLoad - local.avgLoad) / 2
	if imbalance <= 0 {
		imbalance = (metricWith(busiest, gi) - metricWith(local, gi)) / 2
		if probeGI && imbalance != (metricWith(busiest, !gi)-metricWith(local, !gi))/2 {
			s.probe.Fired |= FixGroupImbalance
		}
	}

	// Lines 18–22: pick the busiest core of the group; when tasksets
	// prevent stealing from it, exclude it and try the next.
	var excluded CPUSet
	sawPinned := false
	for {
		bcpu := s.pickBusiestCPU(busiest, c.id, excluded)
		if bcpu < 0 {
			verdict := trace.VerdictNoBusiest
			if sawPinned {
				verdict = trace.VerdictPinned
			}
			s.traceBalance(c, op, verdict, local, busiest, 0)
			return 0
		}
		moved, pinnedOnly := s.moveTasks(s.cpus[bcpu], c, imbalance, level)
		if moved > 0 {
			c.balanceFailed[level] = 0
			s.cpus[bcpu].pinnedFailure = false
			s.traceBalance(c, op, trace.VerdictMoved, local, busiest, moved)
			return moved
		}
		if pinnedOnly {
			// Line 20–21: "load cannot be balanced due to tasksets":
			// exclude busiest cpu and retry; flag the group so parent
			// levels see it as imbalanced.
			s.traceStealReject(c, bcpu, op, trace.VerdictPinned, busiest)
			s.cpus[bcpu].pinnedFailure = true
			sawPinned = true
			excluded.Set(bcpu)
			continue
		}
		s.traceStealReject(c, bcpu, op, trace.VerdictHot, busiest)
		c.balanceFailed[level]++
		s.traceBalance(c, op, trace.VerdictHot, local, busiest, 0)
		return 0
	}
}

// collectGroupStats computes the statistics of every group of d that
// has an online core into the reused scratch buffers, and returns them
// with c's local group, the first of them that contains c, and that
// group's index in d.Groups (nil and -1 when none contains c).
func (s *Scheduler) collectGroupStats(c *CPU, d *Domain) (groups []*groupStats, local *groupStats, localIdx int) {
	// Capacity is ensured up front so the value buffer never
	// reallocates underneath the pointers taken into it.
	if cap(s.gsScratch) < len(d.Groups) {
		s.gsScratch = make([]groupStats, 0, len(d.Groups)*2)
		s.gsGroups = make([]*groupStats, 0, len(d.Groups)*2)
	}
	buf, groups := s.gsScratch[:0], s.gsGroups[:0]
	localIdx = -1
	for i, gset := range d.Groups {
		buf = append(buf, groupStats{})
		g := &buf[len(buf)-1]
		s.computeGroupStats(g, gset)
		if g.weight == 0 {
			buf = buf[:len(buf)-1]
			continue
		}
		groups = append(groups, g)
		if gset.Has(c.id) && local == nil {
			local, localIdx = g, i
		}
	}
	return groups, local, localIdx
}

// noneStealable reports whether no group of d other than the local one
// has a queued thread. Only such a group can yield a steal (Algorithm 1,
// lines 13–16), so pickBusiestGroup would return nil under either
// group-imbalance flag: the pass ends VerdictNoBusiest and the
// divergence probe cannot fire. d.others is the union of those groups.
// Groups overlap at NUMA levels, where a non-local group may contain the
// balancing core; the union still holds exactly the cores some other
// group holds. The balancing core is online at every call site, so
// d.local is the group the full pass picks as local (verifyNoBusiest
// asserts it).
func (s *Scheduler) noneStealable(d *Domain) bool {
	none := d.local >= 0 && d.others.And(s.queuedMask).Empty()
	if checkFastPaths {
		s.verifyNoneStealable(d, none)
	}
	return none
}

// noBusiest ends a pass that noneStealable showed cannot steal, with the
// full pass's effects and records. The full pass has one effect on the
// model: computeGroupStats reads every online core of d's groups through
// CPULoad, which folds the decay of each summed thread's load average up
// to now. That fold depends on the path in floating point (folding at t1
// and then at t2 is not bitwise folding once at t2), so a skipped fold
// would change later loads. The fast path therefore reads every busy
// core of d.Span (the union of d.Groups) whose load is not cached at
// this instant; an idle core holds no thread, so its read would fold
// nothing. Observers get the full pass's NoBusiest record, whose local
// statistics then fold nothing more; a record that only count-only
// recorders keep is counted without them.
func (s *Scheduler) noBusiest(c *CPU, d *Domain, op trace.Op) {
	now, gen := s.eng.Now(), s.loadGen
	busy := d.Span.And(s.busyMask)
	for w := 0; w < 2; w++ {
		for b := busy.bits[w]; b != 0; b &= b - 1 {
			id := topology.CoreID(w*64 + bits.TrailingZeros64(b))
			if cc := s.cpus[id]; cc.loadAt != now || cc.loadGenAt != gen {
				s.CPULoad(id)
			}
		}
	}
	if s.mx != nil || s.wants(trace.KindBalance) {
		var local groupStats
		s.computeGroupStats(&local, d.Groups[d.local])
		s.traceBalance(c, op, trace.VerdictNoBusiest, &local, nil, 0)
	} else {
		s.count(trace.KindBalance)
	}
	if checkFastPaths {
		s.verifyNoBusiest(c, d)
	}
}

// checkFastPaths makes every fast path of the balance and decay code
// check itself against the code it replaces: each noBusiest exit
// against the full pass, each designatedCPU and noneStealable answer
// against a scan of the cores or groups, and each decayMemo hit against
// a recompute. Tests set it; nothing else does.
var checkFastPaths bool

// verifyDesignated panics unless id is the core a scan of d's local
// balance mask picks: the first online idle core, else the first core.
func (s *Scheduler) verifyDesignated(c *CPU, d *Domain, id topology.CoreID) {
	want := topology.CoreID(-1)
	for _, cc := range d.localMask.Cores() {
		if s.cpus[cc].online && s.cpus[cc].idle() {
			want = cc
			break
		}
	}
	if want < 0 {
		want = d.localMask.First()
	}
	if id != want {
		panic(fmt.Sprintf("sched: designated core of cpu %d (%s) at %v is %d, a scan of the local group finds %d", c.id, d.Name, s.eng.Now(), id, want))
	}
}

// verifyNoneStealable panics unless none equals a scan of d's groups
// other than the local one for a queued thread.
func (s *Scheduler) verifyNoneStealable(d *Domain, none bool) {
	want := d.local >= 0
	for i, g := range d.Groups {
		if i != d.local && !g.And(s.queuedMask).Empty() {
			want = false
		}
	}
	if none != want {
		panic(fmt.Sprintf("sched: noneStealable(%s) at %v = %v, a scan of the groups finds %v", d.Name, s.eng.Now(), none, want))
	}
}

// verifyDecayHit panics unless the decayMemo hit k for d equals a
// recompute.
func verifyDecayHit(d sim.Time, k float64) {
	if want := decayFactor(d); k != want {
		panic(fmt.Sprintf("sched: decay memo holds %v for %v, a recompute gives %v", k, d, want))
	}
}

// verifyNoBusiest panics unless the noBusiest exit just taken equals the
// full pass: every busy online core of d.Span, found by rescan, has its
// load cached at this instant, so each fold happened; a full statistics
// pass over d.Groups finds no busiest group under either group-imbalance
// flag; and that pass picks d.local as the local group.
func (s *Scheduler) verifyNoBusiest(c *CPU, d *Domain) {
	now := s.eng.Now()
	d.Span.ForEach(func(id topology.CoreID) {
		if cc := s.cpus[id]; cc.online && !cc.idle() && (cc.loadAt != now || cc.loadGenAt != s.loadGen) {
			panic(fmt.Sprintf("sched: NoBusiest fast path at %v on cpu %d (%s) left cpu %d's load unfolded", now, c.id, d.Name, id))
		}
	})
	groups, local, localIdx := s.collectGroupStats(c, d)
	if localIdx != d.local {
		panic(fmt.Sprintf("sched: NoBusiest fast path at %v on cpu %d (%s) took local group %d, the full pass %d", now, c.id, d.Name, d.local, localIdx))
	}
	for _, gi := range []bool{false, true} {
		if b := s.pickBusiestGroup(groups, local, gi); b != nil {
			panic(fmt.Sprintf("sched: NoBusiest fast path at %v on cpu %d (%s), but the full pass (FixGroupImbalance=%v) picks busiest group %s", now, c.id, d.Name, gi, b.set))
		}
	}
}

// pickBusiestGroup implements line 13 of Algorithm 1 under the given
// group-imbalance flag.
func (s *Scheduler) pickBusiestGroup(groups []*groupStats, local *groupStats, giFixed bool) *groupStats {
	best := func(pred func(*groupStats) bool) *groupStats {
		var b *groupStats
		for _, g := range groups {
			if g == local || g.nrQueued == 0 || !pred(g) {
				continue
			}
			if b == nil || metricWith(g, giFixed) > metricWith(b, giFixed) {
				b = g
			}
		}
		return b
	}
	if g := best(func(g *groupStats) bool { return g.nrRunning > g.weight }); g != nil {
		return g // overloaded group with the highest load
	}
	if g := best(func(g *groupStats) bool { return g.imbalanced }); g != nil {
		return g // taskset-imbalanced group with the highest load
	}
	return best(func(g *groupStats) bool { return true })
}

// pickBusiestCPU selects the most loaded core of the group that has
// stealable (queued) threads, excluding the destination and prior
// failures.
func (s *Scheduler) pickBusiestCPU(g *groupStats, dst topology.CoreID, excluded CPUSet) topology.CoreID {
	best := topology.CoreID(-1)
	bestLoad := -1.0
	g.set.ForEach(func(id topology.CoreID) {
		if id == dst || excluded.Has(id) {
			return
		}
		c := s.cpus[id]
		if !c.online || c.rq.queued() == 0 {
			return
		}
		if load := s.CPULoad(id); load > bestLoad {
			bestLoad = load
			best = id
		}
	})
	return best
}

// moveTasks detaches queued threads from src and attaches them to dst
// until the requested load amount has moved (at least one thread moves
// when dst is idle, so an idle core always gets work if any is stealable).
// It reports the number moved and whether failure was solely due to
// affinity (tasksets).
func (s *Scheduler) moveTasks(src, dst *CPU, amount float64, level int) (int, bool) {
	now := s.eng.Now()
	moved := 0
	movedLoad := 0.0
	sawPinned := false
	minTasks := 0
	if dst.idle() {
		minTasks = 1
	}
	// Snapshot the source queue into the reused scratch buffer (the
	// migrations below mutate the tree while we iterate).
	s.stealScratch = s.stealScratch[:0]
	src.rq.each(func(t *Thread) bool {
		s.stealScratch = append(s.stealScratch, t)
		return true
	})
	for _, t := range s.stealScratch {
		if moved >= s.cfg.MaxMigrate {
			break
		}
		if moved >= minTasks && movedLoad >= amount {
			break
		}
		if !t.affinity.Has(dst.id) {
			sawPinned = true
			continue
		}
		// Cache hotness: recently-run threads stay put until balancing
		// has failed at this level before (can_migrate_task).
		if now-t.lastRan < s.cfg.MigrationCost && dst.balanceFailed[level] < 1 && moved >= minTasks {
			continue
		}
		load := t.load(now, s.decay)
		s.migrateThread(t, src, dst, trace.OpPeriodicBalance)
		t.migrationsPulled++
		moved++
		movedLoad += load
	}
	return moved, moved == 0 && sawPinned
}

// WastedRatio is a convenience for tests: wasted core time divided by
// (elapsed x cores).
func (s *Scheduler) WastedRatio(since sim.Time) float64 {
	elapsed := s.eng.Now() - since
	if elapsed <= 0 {
		return 0
	}
	return float64(s.WastedCoreTime()) / float64(elapsed*sim.Time(s.topo.NumCores()))
}
