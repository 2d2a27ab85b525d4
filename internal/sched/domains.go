package sched

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Domain is one level of a core's scheduling-domain hierarchy (§2.2.1,
// Figure 1): SMT pair, NUMA node (LLC), then one ring of NUMA levels per
// hop distance. Each core holds its own []*Domain slice, bottom-up.
//
// Two of the paper's bugs live here:
//
//   - Scheduling Group Construction (§3.2): at node-spanning levels whose
//     groups overlap, the buggy kernel builds the group list once, from the
//     perspective of the first core of the domain span (Core 0 at the
//     machine level), and every core reuses it. The fix builds the list
//     from the perspective of the core that owns this Domain value.
//
//   - Missing Scheduling Domains (§3.4): after a core is disabled and
//     re-enabled, the buggy regeneration path drops all node-spanning
//     levels, so "threads can only run on the node on which they ran
//     before the core had been disabled".
type Domain struct {
	Level    int
	Name     string
	Span     CPUSet   // online cores covered by this domain
	Groups   []CPUSet // scheduling groups, each a subset of Span
	Interval sim.Time // periodic balance cadence for this level

	// local is the index in Groups of the owning core's group (-1 when
	// absent), precomputed at construction so balance passes don't
	// re-scan the group list. Each core holds its own Domain values, so
	// the owner is unambiguous.
	local int
	// localMask is the precomputed group_balance_mask of the local group
	// (see groupBalanceMask): the designated-core check runs on every
	// due balance level, and the mask only depends on the hierarchy.
	localMask CPUSet
}

// localGroup returns the index of the group containing cpu, or -1.
func (d *Domain) localGroup(cpu topology.CoreID) int {
	for i, g := range d.Groups {
		if g.Has(cpu) {
			return i
		}
	}
	return -1
}

// String renders the domain for debugging and the Figure 1 printout.
func (d *Domain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "L%d %-7s span=%s groups=[", d.Level, d.Name, d.Span)
	for i, g := range d.Groups {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(g.String())
	}
	b.WriteString("]")
	return b.String()
}

// domainKey identifies a domain hierarchy on one topology: the same
// online set, balance interval, NUMA-inclusion rule and construction
// perspective always yield the same per-core hierarchies. ApplyFeatures
// may flip the construction-perspective fix mid-run, so gcFixed is part
// of the key: an entry built under one perspective is never served to
// the other.
type domainKey struct {
	interval    sim.Time
	online      CPUSet
	includeNUMA bool
	gcFixed     bool
}

// domainKey returns the key of the hierarchy the scheduler builds under
// features f: the missing-domains bug drops the NUMA levels once a
// hotplug event occurred, unless f fixes it.
func (s *Scheduler) domainKey(f Features) domainKey {
	return domainKey{
		interval:    s.cfg.BalanceInterval,
		online:      s.online,
		includeNUMA: !s.domainsBroken || f.Has(FixMissingDomains),
		gcFixed:     f.Has(FixGroupConstruction),
	}
}

// hierarchy returns every core's domain list under key, indexed by core
// (nil for offline cores). It is built once per topology and key, and
// every scheduler and fork on the topology shares it: no code writes a
// Domain after construction.
func hierarchy(topo *topology.Topology, key domainKey) [][]*Domain {
	return topo.Memo(key, func() any { return buildHierarchy(topo, key) }).([][]*Domain)
}

// rebuildDomains regenerates every core's domain hierarchy. It implements
// the Missing Scheduling Domains bug: after a hotplug event, with the
// fix disabled, only the intra-node levels are regenerated — the paper's
// "the call to the function generating domains across NUMA nodes was
// dropped by Linux developers during code refactoring".
//
// The hierarchy comes from the topology's memo (see hierarchy): hotplug
// storms revisit the same few online sets, and every scenario on a
// topology starts from the same one, so a rebuild swaps pointers. The
// per-level balance bookkeeping is still reset on every rebuild (reusing
// the backing arrays).
func (s *Scheduler) rebuildDomains() {
	hier := hierarchy(s.topo, s.domainKey(s.cfg.Features))
	now := s.eng.Now()
	for _, c := range s.cpus {
		if !c.online {
			c.domains = nil
			c.nextBalance = c.nextBalance[:0]
			c.balanceFailed = c.balanceFailed[:0]
			continue
		}
		c.domains = hier[c.id]
		n := len(c.domains)
		if cap(c.nextBalance) < n {
			c.nextBalance = make([]sim.Time, n)
			c.balanceFailed = make([]int, n)
		}
		c.nextBalance = c.nextBalance[:n]
		c.balanceFailed = c.balanceFailed[:n]
		for i, d := range c.domains {
			c.nextBalance[i] = now + d.Interval
			c.balanceFailed[i] = 0
		}
	}
	s.counters.DomainRebuilds++
	s.probeDomainsCheck()
}

// buildHierarchy constructs every online core's domain list under key,
// then the balance masks, which compare the per-core views of a group
// and so need the whole hierarchy in place.
func buildHierarchy(topo *topology.Topology, key domainKey) [][]*Domain {
	hier := make([][]*Domain, topo.NumCores())
	key.online.ForEach(func(c topology.CoreID) { hier[c] = buildDomains(topo, key, c) })
	for _, domains := range hier {
		for _, d := range domains {
			if d.local >= 0 {
				d.localMask = groupBalanceMask(hier, d.Groups[d.local], d.Name)
			}
		}
	}
	return hier
}

// groupBalanceMask restricts designation candidates to the cores whose own
// per-core view of this domain level has exactly this local group — the
// kernel's group_balance_mask. With overlapping NUMA groups, a core of
// group G that builds a different local group from its own perspective
// would balance a different instance; counting it here would leave G's
// instance permanently unbalanced.
func groupBalanceMask(hier [][]*Domain, g CPUSet, levelName string) CPUSet {
	var mask CPUSet
	g.ForEach(func(id topology.CoreID) {
		for _, od := range hier[id] {
			if od.Name == levelName {
				if ogi := od.local; ogi >= 0 && od.Groups[ogi].Equal(g) {
					mask.Set(id)
				}
				return
			}
		}
	})
	if mask.Empty() {
		return g
	}
	return mask
}

// buildDomains constructs the bottom-up domain list of one online core
// under key, without its balance masks (see buildHierarchy).
func buildDomains(topo *topology.Topology, key domainKey, cpu topology.CoreID) []*Domain {
	var domains []*Domain
	level := 0
	interval := key.interval
	online := key.online

	// SMT level: the pair of hardware siblings, groups = single cores.
	if sib, ok := topo.SMTSibling(cpu); ok {
		span := NewCPUSet(cpu).Or(NewCPUSet(sib)).And(online)
		if span.Count() > 1 {
			d := &Domain{Level: level, Name: "SMT", Span: span, Interval: interval}
			span.ForEach(func(c topology.CoreID) {
				d.Groups = append(d.Groups, NewCPUSet(c))
			})
			domains = append(domains, d)
			level++
			interval *= 2
		}
	}

	// NODE level: all cores of the NUMA node, groups = SMT pairs (or
	// single cores without SMT).
	node := topo.NodeOf(cpu)
	nodeSpan := NewCPUSet(topo.CoresOfNode(node)...).And(online)
	if nodeSpan.Count() > 1 {
		d := &Domain{Level: level, Name: "NODE", Span: nodeSpan, Interval: interval}
		seen := CPUSet{}
		nodeSpan.ForEach(func(c topology.CoreID) {
			if seen.Has(c) {
				return
			}
			g := NewCPUSet(c)
			if sib, ok := topo.SMTSibling(c); ok && nodeSpan.Has(sib) {
				g.Set(sib)
			}
			g.ForEach(func(cc topology.CoreID) { seen.Set(cc) })
			d.Groups = append(d.Groups, g)
		})
		if len(d.Groups) > 1 {
			domains = append(domains, d)
			level++
			interval *= 2
		}
	}

	if !key.includeNUMA || topo.NumNodes() == 1 {
		for _, d := range domains {
			d.local = d.localGroup(cpu)
		}
		return domains
	}

	// NUMA levels: one per hop distance h = 1..diameter. The span is the
	// set of cores within h hops of this core's node; the groups are the
	// (h-1)-hop neighborhoods of the span's nodes — which overlap for
	// h >= 2, making the construction perspective matter (§3.2).
	for h := 1; h <= topo.MaxHops(); h++ {
		span := NewCPUSet(topo.CoresWithin(node, h)...).And(online)
		// Skip degenerate levels that add no cores beyond the level
		// below (or beyond the lone cpu itself, when hotplug removed
		// every lower-level sibling).
		prevCount := 1
		if len(domains) > 0 {
			prevCount = domains[len(domains)-1].Span.Count()
		}
		if span.Count() <= prevCount {
			continue
		}
		d := &Domain{
			Level:    level,
			Name:     fmt.Sprintf("NUMA-%d", h),
			Span:     span,
			Interval: interval,
		}
		d.Groups = buildNUMAGroups(topo, span, node, h, key.gcFixed)
		domains = append(domains, d)
		level++
		interval *= 2
	}
	for _, d := range domains {
		d.local = d.localGroup(cpu)
	}
	return domains
}

// buildNUMAGroups builds the overlapping scheduling groups of a NUMA-level
// domain. Each group is the (h-1)-hop neighborhood of some uncovered node,
// clipped to the domain span; nodes are taken in ascending order starting
// from the perspective node.
//
// Buggy construction (fix disabled) starts from the first core of the
// span — Core 0's node at the machine level — for every core, so "the
// groups are constructed from the perspective of a specific core (Core 0)"
// and two-hop-apart nodes (1 and 2 on our machine) appear together in
// every group. Fixed construction starts from the balancing core's own
// node.
func buildNUMAGroups(topo *topology.Topology, span CPUSet, selfNode topology.NodeID, h int, gcFixed bool) []CPUSet {
	// Nodes present in the span, ascending.
	var nodes []topology.NodeID
	seen := map[topology.NodeID]bool{}
	span.ForEach(func(c topology.CoreID) {
		n := topo.NodeOf(c)
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	})

	start := 0
	if gcFixed {
		for i, n := range nodes {
			if n == selfNode {
				start = i
				break
			}
		}
	} else {
		// Perspective of the first core of the span (lowest node id):
		// nodes[] is ascending so start stays 0.
		start = 0
	}

	var groups []CPUSet
	covered := map[topology.NodeID]bool{}
	for i := 0; i < len(nodes); i++ {
		n := nodes[(start+i)%len(nodes)]
		if covered[n] {
			continue
		}
		g := NewCPUSet(topo.CoresWithin(n, h-1)...).And(span)
		if g.Empty() {
			continue
		}
		for _, gn := range topo.NodesWithin(n, h-1) {
			if seen[gn] {
				covered[gn] = true
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// Domains returns cpu's current domain hierarchy, bottom-up. The slice is
// shared; callers must not modify it.
func (s *Scheduler) Domains(cpu topology.CoreID) []*Domain {
	return s.cpus[cpu].domains
}

// DescribeDomains renders a core's hierarchy — the Figure 1 printout.
func (s *Scheduler) DescribeDomains(cpu topology.CoreID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduling domains of cpu %d (machine %s):\n", cpu, s.topo.Name())
	for _, d := range s.cpus[cpu].domains {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
