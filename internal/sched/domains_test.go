package sched

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func newTestSched(topo *topology.Topology, cfg Config) *Scheduler {
	eng := sim.New(1)
	s := New(eng, topo, cfg)
	s.Start()
	return s
}

// coresOfNodes flattens node ids into the corresponding core set.
func coresOfNodes(topo *topology.Topology, nodes ...topology.NodeID) CPUSet {
	var s CPUSet
	for _, n := range nodes {
		for _, c := range topo.CoresOfNode(n) {
			s.Set(c)
		}
	}
	return s
}

func TestDomainsSMP(t *testing.T) {
	s := newTestSched(topology.SMP(4), DefaultConfig())
	doms := s.Domains(0)
	if len(doms) != 1 {
		t.Fatalf("SMP(4) should have 1 domain level, got %d", len(doms))
	}
	d := doms[0]
	if d.Name != "NODE" || d.Span.Count() != 4 || len(d.Groups) != 4 {
		t.Fatalf("NODE domain wrong: %s", d)
	}
}

func TestDomainsBulldozerHierarchy(t *testing.T) {
	topo := topology.Bulldozer8()
	s := newTestSched(topo, DefaultConfig())
	doms := s.Domains(0)
	names := make([]string, len(doms))
	for i, d := range doms {
		names[i] = d.Name
	}
	want := []string{"SMT", "NODE", "NUMA-1", "NUMA-2"}
	if len(doms) != 4 {
		t.Fatalf("domain levels = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("domain levels = %v, want %v", names, want)
		}
	}
	// Spans relative to core 0 (Figure 1's construction, on the 8-node
	// machine): SMT pair, 8-core node, 1-hop neighborhood, whole machine.
	if doms[0].Span.Count() != 2 || !doms[0].Span.Has(1) {
		t.Fatalf("SMT span = %v", doms[0].Span)
	}
	if doms[1].Span.Count() != 8 {
		t.Fatalf("NODE span = %v", doms[1].Span)
	}
	if want := coresOfNodes(topo, 0, 1, 2, 4, 6); !doms[2].Span.Equal(want) {
		t.Fatalf("NUMA-1 span = %v, want %v", doms[2].Span, want)
	}
	if doms[3].Span.Count() != 64 {
		t.Fatalf("NUMA-2 span = %v", doms[3].Span)
	}
	// NODE groups are SMT pairs.
	if len(doms[1].Groups) != 4 || doms[1].Groups[0].Count() != 2 {
		t.Fatalf("NODE groups = %v", doms[1].Groups)
	}
	// NUMA-1 groups are whole nodes (disjoint at h=1).
	if len(doms[2].Groups) != 5 {
		t.Fatalf("NUMA-1 has %d groups, want 5", len(doms[2].Groups))
	}
}

// TestBuggyGroupConstruction reproduces the exact §3.2 example: with the
// bug, the machine-level scheduling groups are {0,1,2,4,6} and
// {1,2,3,4,5,7} (as node sets) for every core, so Nodes 1 and 2 are
// together in all groups.
func TestBuggyGroupConstruction(t *testing.T) {
	topo := topology.Bulldozer8()
	s := newTestSched(topo, DefaultConfig()) // all bugs present
	top := s.Domains(0)[3]
	if len(top.Groups) != 2 {
		t.Fatalf("buggy top-level groups = %d, want 2", len(top.Groups))
	}
	g1 := coresOfNodes(topo, 0, 1, 2, 4, 6)
	g2 := coresOfNodes(topo, 1, 2, 3, 4, 5, 7)
	if !top.Groups[0].Equal(g1) {
		t.Fatalf("group 1 = %v, want %v", top.Groups[0], g1)
	}
	if !top.Groups[1].Equal(g2) {
		t.Fatalf("group 2 = %v, want %v", top.Groups[1], g2)
	}
	// Every core shares the same (broken) group list: check a core on
	// node 2 (core 16).
	for i, g := range s.Domains(16)[3].Groups {
		if !g.Equal(top.Groups[i]) {
			t.Fatalf("core 16 group %d differs from core 0's", i)
		}
	}
	// The failure mode: nodes 1 and 2 are both present in every group.
	node1 := coresOfNodes(topo, 1)
	node2 := coresOfNodes(topo, 2)
	for i, g := range top.Groups {
		if g.And(node1).Empty() || g.And(node2).Empty() {
			t.Fatalf("group %d should contain both node 1 and node 2", i)
		}
	}
}

// TestFixedGroupConstruction verifies the fix: groups built from each
// core's own perspective separate nodes 1 and 2.
func TestFixedGroupConstruction(t *testing.T) {
	topo := topology.Bulldozer8()
	cfg := DefaultConfig()
	cfg.Features |= FixGroupConstruction
	s := newTestSched(topo, cfg)

	core16 := topology.CoreID(16) // on node 2
	top := s.Domains(core16)[3]
	node1 := coresOfNodes(topo, 1)
	node2 := coresOfNodes(topo, 2)
	// There must exist a group with node 1 but not node 2 (so a core of
	// node 2 can see the imbalance and steal, §3.2).
	found := false
	for _, g := range top.Groups {
		has1 := !g.And(node1).Empty()
		has2 := !g.And(node2).Empty()
		if has1 && !has2 {
			found = true
		}
	}
	if !found {
		t.Fatal("fixed construction: no group separates node 1 from node 2")
	}
	// The first group is built from node 2's own perspective.
	if !top.Groups[0].Has(core16) {
		t.Fatal("first group should contain the owning core")
	}
	// Groups still cover the whole span.
	var union CPUSet
	for _, g := range top.Groups {
		union = union.Or(g)
	}
	if !union.Equal(top.Span) {
		t.Fatalf("groups cover %v, span %v", union, top.Span)
	}
}

func TestMachine32Figure1Hierarchy(t *testing.T) {
	s := newTestSched(topology.Machine32(), DefaultConfig())
	doms := s.Domains(0)
	// Figure 1: four grey areas — SMT pair (2), node (8), 3 nodes (24),
	// whole machine (32).
	wantCounts := []int{2, 8, 24, 32}
	if len(doms) != 4 {
		t.Fatalf("levels = %d, want 4", len(doms))
	}
	for i, d := range doms {
		if d.Span.Count() != wantCounts[i] {
			t.Fatalf("level %d span = %d cores, want %d", i, d.Span.Count(), wantCounts[i])
		}
	}
}

// TestMissingDomainsAfterHotplug reproduces §3.4: after disable+re-enable,
// the buggy regeneration keeps only intra-node levels.
func TestMissingDomainsAfterHotplug(t *testing.T) {
	topo := topology.Bulldozer8()
	s := newTestSched(topo, DefaultConfig())
	if len(s.Domains(0)) != 4 {
		t.Fatalf("pre-hotplug levels = %d", len(s.Domains(0)))
	}
	if err := s.DisableCPU(63); err != nil {
		t.Fatal(err)
	}
	// Bug is visible immediately after the disable-triggered rebuild.
	if got := len(s.Domains(0)); got != 2 {
		t.Fatalf("post-disable levels = %d, want 2 (SMT+NODE only)", got)
	}
	if err := s.EnableCPU(63); err != nil {
		t.Fatal(err)
	}
	for _, cpu := range []topology.CoreID{0, 16, 63} {
		doms := s.Domains(cpu)
		if got := len(doms); got != 2 {
			t.Fatalf("cpu %d post-hotplug levels = %d, want 2", cpu, got)
		}
		for _, d := range doms {
			if strings.HasPrefix(d.Name, "NUMA") {
				t.Fatalf("cpu %d still has %s after buggy rebuild", cpu, d.Name)
			}
		}
	}
}

func TestFixedDomainsAfterHotplug(t *testing.T) {
	topo := topology.Bulldozer8()
	cfg := DefaultConfig()
	cfg.Features |= FixMissingDomains
	s := newTestSched(topo, cfg)
	if err := s.DisableCPU(63); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableCPU(63); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Domains(0)); got != 4 {
		t.Fatalf("fixed rebuild levels = %d, want 4", got)
	}
}

func TestHotplugSpanExcludesOfflineCore(t *testing.T) {
	topo := topology.TwoNode(4)
	cfg := DefaultConfig()
	cfg.Features |= FixMissingDomains
	s := newTestSched(topo, cfg)
	if err := s.DisableCPU(2); err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Domains(0) {
		if d.Span.Has(2) {
			t.Fatalf("offline core still in %s span", d.Name)
		}
	}
	if err := s.EnableCPU(2); err != nil {
		t.Fatal(err)
	}
	top := s.Domains(0)[len(s.Domains(0))-1]
	if !top.Span.Has(2) {
		t.Fatal("re-enabled core missing from top span")
	}
}

func TestHotplugErrors(t *testing.T) {
	s := newTestSched(topology.SMP(2), DefaultConfig())
	if err := s.DisableCPU(1); err != nil {
		t.Fatal(err)
	}
	if err := s.DisableCPU(1); err == nil {
		t.Fatal("double disable should error")
	}
	if err := s.EnableCPU(1); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableCPU(1); err == nil {
		t.Fatal("double enable should error")
	}
}

func TestDescribeDomains(t *testing.T) {
	s := newTestSched(topology.Bulldozer8(), DefaultConfig())
	out := s.DescribeDomains(0)
	for _, want := range []string{"SMT", "NODE", "NUMA-1", "NUMA-2", "span="} {
		if !strings.Contains(out, want) {
			t.Fatalf("DescribeDomains missing %q:\n%s", want, out)
		}
	}
}

func TestRingDeepHierarchy(t *testing.T) {
	// Ring of 6 nodes has diameter 3: NODE + NUMA-1..3 levels.
	s := newTestSched(topology.Ring(6, 2), DefaultConfig())
	doms := s.Domains(0)
	if len(doms) != 4 {
		names := []string{}
		for _, d := range doms {
			names = append(names, d.Name)
		}
		t.Fatalf("ring levels = %v", names)
	}
	if doms[len(doms)-1].Span.Count() != 12 {
		t.Fatal("top level should span the whole ring")
	}
}

func TestGridDeepHierarchy(t *testing.T) {
	// A 3x3 mesh has diameter 4: NODE + NUMA-1..4 levels.
	s := newTestSched(topology.Grid(3, 3, 2), DefaultConfig())
	doms := s.Domains(0)
	var names []string
	for _, d := range doms {
		names = append(names, d.Name)
	}
	want := []string{"NODE", "NUMA-1", "NUMA-2", "NUMA-3", "NUMA-4"}
	if len(names) != len(want) {
		t.Fatalf("levels = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("levels = %v, want %v", names, want)
		}
	}
	if doms[len(doms)-1].Span.Count() != 18 {
		t.Fatal("top level must span the whole grid")
	}
}

func TestGridBalancingSpreads(t *testing.T) {
	// 18 hogs forked on one corner of the mesh spread to one per core
	// even across the 4-hop diameter.
	cfg := DefaultConfig().WithFixes(AllFixes)
	eng := sim.New(9)
	s := New(eng, topology.Grid(3, 3, 2), cfg)
	s.Start()
	for i := 0; i < 18; i++ {
		th := s.NewThread("h", ThreadOpts{})
		s.StartThreadOn(th, 0)
	}
	eng.RunUntil(400 * sim.Millisecond)
	for c := 0; c < 18; c++ {
		if got := s.NrRunning(topology.CoreID(c)); got != 1 {
			t.Fatalf("core %d nr_running = %d, want 1", c, got)
		}
	}
}

// TestHierarchiesSharedPerTopology: two schedulers on one topology take
// pointer-identical per-core hierarchies from its memo, and a hotplug
// storm on one, with a divergence probe requesting the alternative
// hierarchies too, leaves the other's untouched. Every hierarchy the
// storm could request then equals a fresh buildHierarchy, balance
// masks included: nothing wrote to a shared entry.
func TestHierarchiesSharedPerTopology(t *testing.T) {
	topo := topology.Bulldozer8()
	a := newTestSched(topo, DefaultConfig())
	b := newTestSched(topo, DefaultConfig())
	for cpu := range a.cpus {
		id := topology.CoreID(cpu)
		da, db := a.Domains(id), b.Domains(id)
		if len(da) == 0 || len(da) != len(db) {
			t.Fatalf("cpu %d: %d and %d levels", cpu, len(da), len(db))
		}
		for lvl := range da {
			if da[lvl] != db[lvl] {
				t.Fatalf("cpu %d level %d: two schedulers on one topology built separate domains", cpu, lvl)
			}
		}
	}
	bDomains := make([][]*Domain, len(b.cpus))
	bDescribed := make([]string, len(b.cpus))
	for cpu := range b.cpus {
		id := topology.CoreID(cpu)
		bDomains[cpu] = append([]*Domain(nil), b.Domains(id)...)
		bDescribed[cpu] = b.DescribeDomains(id)
	}

	// keys collects every key a rebuild or the probe can request in the
	// storm: the current online set under each construction flag pair.
	keys := map[domainKey]bool{}
	note := func() {
		for _, f := range []Features{0, FixGroupConstruction, FixMissingDomains, FixGroupConstruction | FixMissingDomains} {
			keys[a.domainKey(f)] = true
		}
	}
	a.SetDivergenceProbe(&DivergenceProbe{Armed: AllFixes})
	note()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		cpu := topology.CoreID(rng.Intn(topo.NumCores()))
		var err error
		if a.cpus[cpu].online {
			if a.OnlineSet().Count() == 1 {
				continue
			}
			err = a.DisableCPU(cpu)
		} else {
			err = a.EnableCPU(cpu)
		}
		if err != nil {
			t.Fatal(err)
		}
		note()
	}
	if len(keys) < 20 {
		t.Fatalf("the storm visited %d hierarchy keys; too few to exercise the memo", len(keys))
	}

	for cpu := range b.cpus {
		id := topology.CoreID(cpu)
		got := b.Domains(id)
		if len(got) != len(bDomains[cpu]) {
			t.Fatalf("cpu %d: the other scheduler's hierarchy changed depth", cpu)
		}
		for lvl := range got {
			if got[lvl] != bDomains[cpu][lvl] {
				t.Fatalf("cpu %d level %d: the other scheduler's domain was replaced", cpu, lvl)
			}
		}
		if d := b.DescribeDomains(id); d != bDescribed[cpu] {
			t.Fatalf("cpu %d: the other scheduler's domains changed:\n%s\nwant\n%s", cpu, d, bDescribed[cpu])
		}
	}
	for key := range keys {
		memo, fresh := hierarchy(topo, key), buildHierarchy(topo, key)
		for cpu := range fresh {
			if !domainsEqual(memo[cpu], fresh[cpu]) {
				t.Fatalf("key %+v cpu %d: memo entry differs from a fresh build", key, cpu)
			}
			for lvl, d := range fresh[cpu] {
				m := memo[cpu][lvl]
				if m.local != d.local || !m.localMask.Equal(d.localMask) {
					t.Fatalf("key %+v cpu %d level %d: local group %d mask %s, fresh build %d %s",
						key, cpu, lvl, m.local, m.localMask, d.local, d.localMask)
				}
			}
		}
	}
}
