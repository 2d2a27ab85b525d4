package campaign

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/topology"
)

// TestConfigRegistryCompat pins the compatibility surface of the
// policy-registry refactor: every config name the campaign ever shipped
// still resolves through ConfigByName, and the curated listing keeps
// its composition.
func TestConfigRegistryCompat(t *testing.T) {
	legacy := []string{
		"bugs", "fix-gi", "fix-gc", "fix-oow", "fix-md",
		"fixed", "powersave", "modsched",
	}
	for f := range sched.AllFixes + 1 {
		legacy = append(legacy, policy.LatticeConfigName(f))
	}
	for _, name := range legacy {
		if _, ok := ConfigByName(name); !ok {
			t.Errorf("config %q no longer resolves", name)
		}
	}
	if _, ok := ConfigByName("no-such-config"); ok {
		t.Error("unknown config resolved")
	}
	names := map[string]bool{}
	for _, c := range BuiltinConfigs() {
		names[c.Name] = true
	}
	for _, want := range []string{"bugs", "fixed", "globalq-shared", "globalq-percore"} {
		if !names[want] {
			t.Errorf("BuiltinConfigs missing %q", want)
		}
	}
	if !strings.Contains(ConfigNames(), "globalq-shared") {
		t.Errorf("ConfigNames() missing globalq-shared: %s", ConfigNames())
	}
}

func TestMustConfigsPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustConfigs accepted an unknown name")
		}
	}()
	MustConfigs("no-such-config")
}

func TestTopologyRegistry(t *testing.T) {
	for _, name := range []string{"bulldozer8", "machine32", "twonode8", "smp8", "grid2x2", "ring4"} {
		tp, ok := TopologyByName(name)
		if !ok || tp.Build == nil {
			t.Errorf("topology %q no longer resolves", name)
		}
	}
	if err := RegisterTopology(TopologySpec{Name: "bulldozer8", Build: BuiltinTopologies()[0].Build}); err == nil {
		t.Error("duplicate topology registration accepted")
	}
	if err := RegisterTopology(TopologySpec{Name: "t-" + t.Name(), Build: nil}); err == nil {
		t.Error("nil-Build topology registration accepted")
	}
	if err := RegisterTopology(TopologySpec{}); err == nil {
		t.Error("empty topology name accepted")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	for _, name := range []string{
		"make2r", "tpch", "nas:lu", "nas:cg", "nas:ep",
		"nas-pin:lu", "nas-hotplug:lu", "nas-hotplug-storm:lu:4", "serve:3000", "globalq",
	} {
		if _, ok := WorkloadByName(name); !ok {
			t.Errorf("workload %q no longer resolves", name)
		}
	}
	// Parameterized families resolve through their prefixes.
	for _, name := range []string{"nas:bt", "nas-pin:cg", "nas-hotplug:lu", "nas-hotplug-storm:lu:6", "serve:500"} {
		w, ok := WorkloadByName(name)
		if !ok {
			t.Errorf("family workload %q did not resolve", name)
			continue
		}
		if w.Name != name {
			t.Errorf("family workload %q resolved as %q", name, w.Name)
		}
	}
	if err := RegisterWorkload(Workload{Name: "make2r"}); err == nil {
		t.Error("duplicate workload registration accepted")
	}
	if err := RegisterWorkload(Workload{}); err == nil {
		t.Error("empty workload name accepted")
	}
}

// TestNamesListEveryFamily: WorkloadNames lists each registered family's
// pattern, and each pattern, filled in, resolves — the one line that
// registers a family also lists it. ConfigNames covers the lattice.
func TestNamesListEveryFamily(t *testing.T) {
	fill := strings.NewReplacer("<app>", "lu", "<cycles>", "2", "<qps>", "100")
	for _, fam := range families {
		if !strings.Contains(WorkloadNames(), fam.pattern) {
			t.Errorf("WorkloadNames() does not list %s: %s", fam.pattern, WorkloadNames())
		}
		if name := fill.Replace(fam.pattern); !strings.Contains(name, "<") {
			if w, ok := WorkloadByName(name); !ok || w.Name != name {
				t.Errorf("listed pattern %s: %q does not resolve to itself (ok=%v)", fam.pattern, name, ok)
			}
		} else {
			t.Errorf("pattern %s has a placeholder this test cannot fill", fam.pattern)
		}
	}
	if len(families) != 5 {
		t.Errorf("%d workload families, want 5", len(families))
	}
	for _, c := range policy.LatticeConfigs() {
		if _, ok := ConfigByName(c.Name); !ok {
			t.Errorf("lattice config %s does not resolve", c.Name)
		}
	}
	if !strings.Contains(ConfigNames(), "fx-none") || !strings.Contains(ConfigNames(), "gi, gc, oow, md") {
		t.Errorf("ConfigNames() does not describe the lattice: %s", ConfigNames())
	}
}

// FuzzWorkloadByName: resolving any name must not panic, and an accepted
// name's Workload.Name must resolve to a workload of that same Name —
// the canonical name is what scenario keys and the repeated-entry check
// of the sweep commands rely on.
func FuzzWorkloadByName(f *testing.F) {
	for _, s := range []string{
		"make2r", "tpch", "nas:lu", "nas-pin:cg", "nas-hotplug:ep",
		"nas-hotplug-storm:lu:4", "nas-hotplug-storm:cg:04", "nas-hotplug-storm:lu",
		"serve:50", "serve:050", "serve:+7", "serve:0", "serve:-1", "nas:", "", "bogus",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		w, ok := WorkloadByName(name)
		if !ok {
			return
		}
		if w.Name == "" || w.Run == nil {
			t.Fatalf("%q resolves to an unnamed or unrunnable workload", name)
		}
		again, ok := WorkloadByName(w.Name)
		if !ok || again.Name != w.Name {
			t.Fatalf("%q resolves to %q, which resolves to %q (ok=%v)", name, w.Name, again.Name, ok)
		}
	})
}

// TestRegisteredTopologyBuiltOnce: every scenario of a registered shape
// runs on one Topology, so the domain hierarchies memoized on it are
// built once per process.
func TestRegisteredTopologyBuiltOnce(t *testing.T) {
	for _, tp := range BuiltinTopologies() {
		if a, b := tp.Build(), tp.Build(); a != b {
			t.Errorf("topology %q: two Build calls returned two Topologies", tp.Name)
		}
	}
}

// TestWorkersShareTopologyMemo: concurrent workers on one Topology
// request and build its domain hierarchies through the shared memo (the
// race detector watches this in make race), hotplug storms included. The
// artifact must not depend on which worker built which hierarchy: four
// workers on one fresh Topology write the bytes one worker writes on
// another.
func TestWorkersShareTopologyMemo(t *testing.T) {
	run := func(workers int) []byte {
		topo := topology.Bulldozer8()
		m := Matrix{
			Topologies: []TopologySpec{{Name: "bulldozer8", Build: func() *topology.Topology { return topo }}},
			Workloads:  MustWorkloads("nas-hotplug-storm:lu:4", "nas-hotplug:cg", "make2r"),
			Configs:    MustConfigs("bugs", "fixed"),
			Seeds:      []int64{1, 2},
			Scale:      0.05,
		}
		c, err := RunScenarios(m.Scenarios(), RunnerOpts{Workers: workers, BaseSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if r := c.Result("bulldozer8/nas-hotplug-storm:lu:4/bugs/s1"); r == nil || r.Counters.DomainRebuilds < 8 {
			t.Fatalf("the hotplug storm rebuilt too few hierarchies to exercise the memo: %+v", r)
		}
		data, err := c.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(run(1), run(4)) {
		t.Fatal("artifact differs between one and four workers on a shared topology")
	}
}
