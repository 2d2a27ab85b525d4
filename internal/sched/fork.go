package sched

import (
	"repro/internal/sim"
)

// This file is the scheduler half of the world fork that explain's
// counterfactual replays use (see sim/fork.go for the engine half): a
// deep Clone onto a forked engine and ApplyFeatures for re-configuring a
// clone in place. It also holds the divergence probe, which lets the
// bisect lattice prove two fix subsets would produce byte-identical runs.

// ThreadByID returns the thread with the given id. Ids are dense (the
// creation index), so this is an O(1) lookup — the mapping a fork uses to
// remap thread pointers between a scheduler and its clone.
func (s *Scheduler) ThreadByID(id int) *Thread { return s.threads[id] }

// GroupByID returns the task group with the given id.
func (s *Scheduler) GroupByID(id int) *TaskGroup { return s.groups[id] }

// Clone deep-copies the scheduler onto eng, which must be a Fork of this
// scheduler's engine (same clock, same issued sequence numbers). Threads,
// groups, runqueues, the idle list, balance bookkeeping and counters are
// all copied; pending tick and resched events are re-registered on eng at
// their original (time, sequence) positions, so the clone's event queue
// pops in source order. Domain hierarchies are shared (immutable after
// construction; see hierarchy). Hooks are reset to no-ops — the caller
// wires the cloned machine in — and the clone starts with no recorders,
// metrics, latency probe or divergence probe attached: observers watch
// one world, and a counterfactual replay attaches fresh ones, so the two
// worlds' evidence streams stay independent.
//
// A placement policy makes decisions rather than observing them and
// cannot be cloned meaningfully; Clone panics if one is attached.
func (s *Scheduler) Clone(eng *sim.Engine) *Scheduler {
	if s.policy != nil {
		panic("sched: Clone with a placement policy attached")
	}
	ns := &Scheduler{
		eng:            eng,
		topo:           s.topo,
		cfg:            s.cfg,
		hooks:          nopHooks{},
		idleHead:       s.idleHead,
		idleTail:       s.idleTail,
		nohzBalancer:   s.nohzBalancer,
		online:         s.online,
		nextTID:        s.nextTID,
		nextGID:        s.nextGID,
		started:        s.started,
		domainsBroken:  s.domainsBroken,
		counters:       s.counters,
		wastedCoreTime: s.wastedCoreTime,
		wastedStamp:    s.wastedStamp,
		idleCount:      s.idleCount,
		queuedTotal:    s.queuedTotal,
		curIdle:        s.curIdle,
		curQueued:      s.curQueued,
		queuedMask:     s.queuedMask,
		busyMask:       s.busyMask,
		loadGen:        s.loadGen,
		decay:          s.decay,
	}

	ns.groups = make([]*TaskGroup, len(s.groups))
	for i, g := range s.groups {
		cg := *g
		ns.groups[i] = &cg
	}
	ns.rootGroup = ns.groups[s.rootGroup.id]

	ns.threads = make([]*Thread, len(s.threads))
	for i, t := range s.threads {
		ct := *t
		ct.group = ns.groups[t.group.id]
		// Runqueue membership is rebuilt below, per CPU.
		ct.onRQ = rqHandle{}
		ct.queued = false
		ns.threads[i] = &ct
	}

	ns.cpus = make([]*CPU, len(s.cpus))
	for i, c := range s.cpus {
		nc := &CPU{
			id:             c.id,
			rq:             newCFSRQ(),
			online:         c.online,
			accruedUpTo:    c.accruedUpTo,
			idleSince:      c.idleSince,
			idlePrev:       c.idlePrev,
			idleNext:       c.idleNext,
			inIdle:         c.inIdle,
			tickless:       c.tickless,
			domains:        c.domains, // immutable after construction
			pinnedFailure:  c.pinnedFailure,
			reschedPending: c.reschedPending,
			occIdle:        c.occIdle,
			occQueued:      c.occQueued,
			loadAt:         c.loadAt,
			loadGenAt:      c.loadGenAt,
			loadVal:        c.loadVal,
		}
		if c.curr != nil {
			nc.curr = ns.threads[c.curr.id]
		}
		c.rq.each(func(t *Thread) bool {
			nt := ns.threads[t.id]
			nt.onRQ = nc.rq.tree.Insert(rqKey{nt.vruntime, nt.id, nt})
			nt.queued = true
			return true
		})
		nc.rq.queuedWt = c.rq.queuedWt
		nc.rq.minVruntime = c.rq.minVruntime
		nc.nextBalance = append([]sim.Time(nil), c.nextBalance...)
		nc.balanceFailed = append([]int(nil), c.balanceFailed...)
		nc.tickTm = eng.NewTimer(func() { ns.tick(nc) })
		nc.tickTm.RestoreFrom(c.tickTm)
		nc.reschedTm = eng.NewTimer(func() { ns.reschedFire(nc) })
		nc.reschedTm.RestoreFrom(c.reschedTm)
		ns.cpus[i] = nc
	}
	return ns
}

// ApplyFeatures switches the fix set of a (typically just-cloned)
// scheduler to f and rebuilds the domain hierarchy under it. When f
// leaves the hierarchy's key unchanged — group imbalance and
// overload-on-wakeup never enter it, and the missing-domains fix does not
// before a hotplug event — it only sets the fixes: a rebuild would return
// pointer-identical hierarchies, every core would keep its balance
// bookkeeping (see below), and the divergence probe's verdict, read from
// fields of the key, could not change.
//
// Otherwise the rebuild takes the new key's hierarchy from the
// topology's memo and the rebuild counter is restored, so the clone's
// counters match a scheduler constructed with f from the start — the
// property explain's mid-run replays rest on (explain's
// TestForkAtOnsetReplayMatchesFreshRun compares a forked, re-configured
// world with a fresh one). Rebuilding resets every core's periodic-balance
// schedule, which is right when the hierarchy changed (the old levels no
// longer exist) but would be a pure perturbation where it did not: a
// counterfactual replay's divergence from its control must come from the
// fix's decisions, not from a rescheduled balance pass. Cores whose
// hierarchy the rebuild reproduced identically therefore keep their
// pre-rebuild schedules — also what makes a mid-run fork + ApplyFeatures
// byte-identical to a fresh run with the fix, when the fix had not fired
// by the fork instant.
func (s *Scheduler) ApplyFeatures(f Features) {
	if s.domainKey(f) == s.domainKey(s.cfg.Features) {
		s.cfg.Features = f
		return
	}
	oldDomains := make([][]*Domain, len(s.cpus))
	oldNext := make([][]sim.Time, len(s.cpus))
	oldFailed := make([][]int, len(s.cpus))
	for i, c := range s.cpus {
		oldDomains[i] = c.domains
		oldNext[i] = append([]sim.Time(nil), c.nextBalance...)
		oldFailed[i] = append([]int(nil), c.balanceFailed...)
	}
	s.cfg.Features = f
	pre := s.counters.DomainRebuilds
	s.rebuildDomains()
	s.counters.DomainRebuilds = pre
	for i, c := range s.cpus {
		if len(oldNext[i]) == len(c.nextBalance) && domainsEqual(oldDomains[i], c.domains) {
			copy(c.nextBalance, oldNext[i])
			copy(c.balanceFailed, oldFailed[i])
		}
	}
}

// DivergenceProbe watches a run on behalf of fixes that are NOT
// enabled, and records which of them would have changed at least one
// scheduling decision had they been enabled. A fix that never fires is a
// proof that enabling it would have produced the exact same trajectory:
// every detector is evaluated at the decision it guards, on the live
// scheduler state, by recomputing the decision with the fix flipped —
// so by induction over the (deterministic) event sequence, a run under
// the extended fix set is byte-identical to the observed one. The
// campaign's collapsed cell runner uses this to skip lattice configs
// whose outcome is already determined.
type DivergenceProbe struct {
	// Armed is the set of fixes to watch. Only fixes absent from the
	// scheduler's config are meaningful.
	Armed Features
	// Fired accumulates the armed fixes whose flip would have diverged.
	Fired Features
}

// Watching reports whether p still watches fix f: f is armed and has
// not fired yet. It is false on a nil probe.
func (p *DivergenceProbe) Watching(f Features) bool {
	return p != nil && p.Armed.Has(f) && !p.Fired.Has(f)
}

// SetDivergenceProbe installs (or clears, with nil) a divergence probe.
// The current domain hierarchy is checked immediately: construction-time
// divergence (group perspective, missing NUMA levels) exists before any
// event runs.
func (s *Scheduler) SetDivergenceProbe(p *DivergenceProbe) {
	s.probe = p
	if p != nil {
		s.probeDomainsCheck()
	}
}

// Probe returns the installed divergence probe, or nil. The checker uses
// it to report observation-level divergence (its episode classification
// reads the group-imbalance flag).
func (s *Scheduler) Probe() *DivergenceProbe { return s.probe }

// probeDomainsCheck fires the construction fixes whose flip would change
// the current domain hierarchy. Called after every rebuild and at probe
// attach: domain structure is the one place the group-construction and
// missing-domains fixes act, so comparing the hierarchy that the flipped
// fix would have built against the real one is a complete divergence
// test for both.
func (s *Scheduler) probeDomainsCheck() {
	p := s.probe
	if p.Watching(FixGroupConstruction) &&
		!s.hierarchyMatches(s.domainKey(s.cfg.Features^FixGroupConstruction)) {
		p.Fired |= FixGroupConstruction
	}
	if p.Watching(FixMissingDomains) {
		alt := s.domainKey(s.cfg.Features ^ FixMissingDomains)
		if alt != s.domainKey(s.cfg.Features) && !s.hierarchyMatches(alt) {
			p.Fired |= FixMissingDomains
		}
	}
}

// hierarchyMatches reports whether every online core's domain list under
// key, taken from the topology's memo, equals its current one.
func (s *Scheduler) hierarchyMatches(key domainKey) bool {
	alt := hierarchy(s.topo, key)
	for _, c := range s.cpus {
		if c.online && !domainsEqual(c.domains, alt[c.id]) {
			return false
		}
	}
	return true
}

// domainsEqual compares two per-core hierarchies structurally, including
// group order — pickBusiestGroup breaks metric ties by first-seen, so a
// reordered group list is an observable difference.
func domainsEqual(a, b []*Domain) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		da, db := a[i], b[i]
		if da.Level != db.Level || da.Name != db.Name || !da.Span.Equal(db.Span) {
			return false
		}
		if len(da.Groups) != len(db.Groups) {
			return false
		}
		for j := range da.Groups {
			if !da.Groups[j].Equal(db.Groups[j]) {
				return false
			}
		}
	}
	return true
}
