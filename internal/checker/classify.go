package checker

import (
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Class labels a confirmed violation with the signature of the paper bug
// that best explains why the idle/overloaded pair persisted through the
// monitoring window. The classification is a deterministic function of
// the scheduler state witnessed at confirmation — domain spans, group
// membership, the balancer's own group metric, and wakeup placement
// during the window — so the same episode always earns the same label,
// and the bisection lattice can answer "which episode class did this fix
// remove".
type Class string

// The four bug signatures of the paper plus a fallback.
const (
	// ClassMissingDomains (§3.4): the idle core's scheduling-domain
	// hierarchy does not span the overloaded core at all, so no balancing
	// level could ever consider the pair.
	ClassMissingDomains Class = "missing-domains"
	// ClassGroupConstruction (§3.2): the overloaded core sits inside the
	// idle core's local group at every level that spans it, while the two
	// live on nodes at least two hops apart — the balancer believes the
	// load is "local" and never steals it.
	ClassGroupConstruction Class = "group-construction"
	// ClassGroupImbalance (§3.1): at the decisive level (the lowest one
	// where the overloaded core is in a remote group) the balancer's own
	// group metric claims the idle side carries at least as much load as
	// the overloaded side, so it sees no imbalance to fix.
	ClassGroupImbalance Class = "group-imbalance"
	// ClassOverloadWakeup (§3.3): the balancer can see the imbalance, but
	// wakeups kept landing on busy cores during the monitoring window,
	// re-creating the overload faster than balancing drains it.
	ClassOverloadWakeup Class = "overload-wakeup"
	// ClassOther: none of the four signatures match.
	ClassOther Class = "other"
)

// Classes lists every episode class in report order.
func Classes() []Class {
	return []Class{ClassGroupImbalance, ClassGroupConstruction,
		ClassOverloadWakeup, ClassMissingDomains, ClassOther}
}

// Classify names the bug signature of a confirmed idle/overloaded pair.
// wakeupsOnBusy is the number of wakeups placed on busy cores during the
// monitoring window (counter delta between detection and confirmation).
func Classify(s *sched.Scheduler, idle, busy topology.CoreID, wakeupsOnBusy uint64) Class {
	return classifyWith(s, idle, busy, wakeupsOnBusy, s.Config().Features.Has(sched.FixGroupImbalance))
}

// classifyWith is Classify with the group-imbalance flag given explicitly:
// the balancer-metric mirror below reads it, and the divergence probe
// needs the classification the flipped flag would have produced.
func classifyWith(s *sched.Scheduler, idle, busy topology.CoreID, wakeupsOnBusy uint64, giFixed bool) Class {
	topo := s.Topology()
	var spanning []*sched.Domain
	for _, d := range s.Domains(idle) {
		if d.Span.Has(busy) {
			spanning = append(spanning, d)
		}
	}
	if len(spanning) == 0 {
		return ClassMissingDomains
	}

	localGroup := func(d *sched.Domain, cpu topology.CoreID) (sched.CPUSet, bool) {
		for _, g := range d.Groups {
			if g.Has(cpu) {
				return g, true
			}
		}
		return sched.CPUSet{}, false
	}

	// The buggy group construction keeps 2-hop-apart nodes in the same
	// group at every level from the idle core's perspective, so the load
	// is "local" everywhere and never pulled.
	localEverywhere := true
	for _, d := range spanning {
		lg, ok := localGroup(d, idle)
		if !ok || !lg.Has(busy) {
			localEverywhere = false
			break
		}
	}
	if localEverywhere {
		if topo.Hops(topo.NodeOf(idle), topo.NodeOf(busy)) >= 2 {
			return ClassGroupConstruction
		}
		return ClassOther
	}

	// Decisive level: the lowest domain of the idle core whose group list
	// puts the overloaded core in a remote group — the first place a pull
	// could have happened. If the balancer's own comparison metric says
	// the local group is at least as loaded as the overloaded one, the
	// imbalance is masked (by a high-load thread under the average-load
	// bug, or by an idle-but-unstealable core under the min-load fix).
	for _, d := range spanning {
		lg, ok := localGroup(d, idle)
		if !ok {
			break
		}
		if lg.Has(busy) {
			continue
		}
		rg, ok := localGroup(d, busy)
		if !ok {
			break
		}
		if groupMetric(s, lg, giFixed)+1e-9 >= groupMetric(s, rg, giFixed) {
			return ClassGroupImbalance
		}
		break
	}

	if wakeupsOnBusy > 0 {
		return ClassOverloadWakeup
	}
	return ClassOther
}

// groupMetric mirrors the balancer's scheduling-group comparison (§3.1):
// average load with the bug present, minimum load with the Group
// Imbalance fix.
func groupMetric(s *sched.Scheduler, g sched.CPUSet, giFixed bool) float64 {
	var sum, min float64
	min = -1
	n := 0
	g.ForEach(func(id topology.CoreID) {
		load := s.CPULoad(id)
		sum += load
		if min < 0 || load < min {
			min = load
		}
		n++
	})
	if n == 0 {
		return 0
	}
	if giFixed {
		if min < 0 {
			return 0
		}
		return min
	}
	return sum / float64(n)
}

// EpisodesByClass counts confirmed violations per bug signature.
func (c *Checker) EpisodesByClass() map[Class]int {
	out := map[Class]int{}
	for _, v := range c.violations {
		out[v.Class]++
	}
	return out
}

// IdleByClass sums the confirmed violation windows per bug signature.
func (c *Checker) IdleByClass() map[Class]sim.Time {
	out := map[Class]sim.Time{}
	for _, v := range c.violations {
		out[v.Class] += v.ConfirmedAt - v.DetectedAt
	}
	return out
}
