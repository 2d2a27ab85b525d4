package policy

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/topology"
)

func TestRegisterRejectsDuplicatesAndEmptyNames(t *testing.T) {
	if err := Register(Policy{}); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register(Policy{Name: "fixed"}); err == nil {
		t.Error("duplicate builtin name accepted")
	}
	name := "test-dup-" + t.Name()
	if err := Register(Policy{Name: name}); err != nil {
		t.Fatal(err)
	}
	if err := Register(Policy{Name: name}); err == nil {
		t.Error("duplicate registration accepted")
	}
}

// TestLegacyNamesResolve is the compatibility contract of the registry
// refactor: every config name that existed before the policy registry —
// the eight curated configs and all sixteen fx-* lattice points — still
// resolves, so old scenario keys, CLI flags and bisect reports keep
// meaning what they meant.
func TestLegacyNamesResolve(t *testing.T) {
	legacy := []string{
		"bugs", "fix-gi", "fix-gc", "fix-oow", "fix-md",
		"fixed", "powersave", "modsched",
	}
	for f := range sched.AllFixes + 1 {
		legacy = append(legacy, LatticeConfigName(f))
	}
	for _, name := range legacy {
		p, ok := ByName(name)
		if !ok {
			t.Errorf("legacy config %q no longer resolves", name)
			continue
		}
		if p.Name != name || p.Version == 0 {
			t.Errorf("legacy config %q resolved to %q version %d", name, p.Name, p.Version)
		}
	}
	// And the new policy-space entries exist alongside them.
	for _, name := range []string{
		"globalq-shared", "globalq-percore",
		"greedy-idlest", "affinity-strict", "numa-blind",
	} {
		if _, ok := ByName(name); !ok {
			t.Errorf("policy %q not registered", name)
		}
	}
}

func TestHistoricalConfigsUnchanged(t *testing.T) {
	// The registry must hand back the exact sched.Config the old
	// hard-coded slice produced — scenario bytes depend on it.
	cases := []struct {
		name string
		want sched.Config
	}{
		{"bugs", sched.DefaultConfig()},
		{"fix-gi", sched.DefaultConfig().WithFixes(sched.FixGroupImbalance)},
		{"fixed", sched.DefaultConfig().WithFixes(sched.AllFixes)},
	}
	for _, c := range cases {
		p, ok := ByName(c.name)
		if !ok {
			t.Fatalf("%q missing", c.name)
		}
		if p.Config != c.want {
			t.Errorf("%q config drifted: %+v", c.name, p.Config)
		}
	}
	pw, _ := ByName("powersave")
	if pw.Config.Power != sched.PowerSaving || pw.Config.Features != sched.AllFixes {
		t.Errorf("powersave config drifted: %+v", pw.Config)
	}
}

func TestBuiltinListingExcludesLattice(t *testing.T) {
	for _, p := range Builtin() {
		if strings.HasPrefix(p.Name, "fx-") {
			t.Errorf("lattice point %q leaked into Builtin()", p.Name)
		}
	}
	if len(Builtin()) < 6 {
		t.Errorf("Builtin() has %d policies, want >= 6", len(Builtin()))
	}
	if len(LatticeConfigs()) != 16 {
		t.Errorf("LatticeConfigs has %d points, want 16", len(LatticeConfigs()))
	}
}

func TestApplyResolvesModulesAndDetaches(t *testing.T) {
	p, ok := ByName("modsched")
	if !ok {
		t.Fatal("modsched policy missing")
	}
	m := machine.New(topology.TwoNode(2), p.Config, 1)
	detach, err := p.Apply(m.Sched)
	if err != nil {
		t.Fatal(err)
	}
	detach()

	bad := Policy{Name: "x", Modules: []string{"no-such-module"}}
	if _, err := bad.Apply(m.Sched); err == nil {
		t.Error("unknown module accepted")
	}
}

// TestLatticeConfigsMatchFeatures: LatticeConfigs is indexed by fix set,
// and LatticeConfigName and ParseLatticeConfigName are inverses over the
// whole lattice that reject every non-lattice name.
func TestLatticeConfigsMatchFeatures(t *testing.T) {
	configs := LatticeConfigs()
	for f := range sched.AllFixes + 1 {
		if got := configs[f].Config.Features; got != f {
			t.Errorf("LatticeConfigs()[%d] has fixes %d", f, got)
		}
		if configs[f].Name != LatticeConfigName(f) {
			t.Errorf("LatticeConfigs()[%d] named %q, want %q", f, configs[f].Name, LatticeConfigName(f))
		}
		if got, ok := ParseLatticeConfigName(LatticeConfigName(f)); !ok || got != f {
			t.Errorf("ParseLatticeConfigName(%q) = %d, %v; want %d", LatticeConfigName(f), got, ok, f)
		}
	}
	for _, bad := range []string{"fix-gi", "bugs", "fx-", "fx-bogus", "gi"} {
		if f, ok := ParseLatticeConfigName(bad); ok {
			t.Errorf("ParseLatticeConfigName(%q) = %d, accepted", bad, f)
		}
	}
}
