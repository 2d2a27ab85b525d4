package campaign

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/latency"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// testMatrix is a small but non-trivial matrix: two topologies, two
// workload families (one machine-driven, one model-driven), two
// configs.
func testMatrix() Matrix {
	m := SmokeMatrix()
	m.Scale = 0.1
	return m
}

func TestMatrixEnumeration(t *testing.T) {
	m := testMatrix()
	scs := m.Scenarios()
	if len(scs) != m.Size() {
		t.Fatalf("Scenarios() = %d, Size() = %d", len(scs), m.Size())
	}
	if m.Size() != 2*2*2 {
		t.Fatalf("smoke matrix size = %d, want 8", m.Size())
	}
	keys := map[string]bool{}
	for _, sc := range scs {
		k := sc.Key()
		if keys[k] {
			t.Fatalf("duplicate key %q", k)
		}
		keys[k] = true
	}
}

func TestDefaultMatrixMeetsFloor(t *testing.T) {
	if n := DefaultMatrix().Size(); n < 24 {
		t.Fatalf("default matrix has %d scenarios, want >= 24", n)
	}
}

// TestDeterminismAcrossWorkers is the core guarantee: the artifact is
// byte-identical for any worker count, on the collapsed path (every
// smoke cell collapses) and with NoFork, one job per scenario.
func TestDeterminismAcrossWorkers(t *testing.T) {
	m := testMatrix()
	for _, noFork := range []bool{false, true} {
		var artifacts [][]byte
		for _, workers := range []int{1, 8} {
			c, err := Run(m, RunnerOpts{Workers: workers, BaseSeed: 42, NoFork: noFork})
			if err != nil {
				t.Fatal(err)
			}
			data, err := c.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			artifacts = append(artifacts, data)
		}
		if !bytes.Equal(artifacts[0], artifacts[1]) {
			t.Fatalf("NoFork=%v: artifacts differ between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s",
				noFork, artifacts[0], artifacts[1])
		}
	}
}

// TestDeterminismAcrossOrder: shuffling the scenario list must not
// change the artifact (results are keyed, seeds derive from keys), on
// either path.
func TestDeterminismAcrossOrder(t *testing.T) {
	m := testMatrix()
	scs := m.Scenarios()
	shuffled := append([]Scenario(nil), scs...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, noFork := range []bool{false, true} {
		opts := RunnerOpts{Workers: 4, BaseSeed: 42, NoFork: noFork}
		ordered, err := RunScenarios(scs, opts)
		if err != nil {
			t.Fatal(err)
		}
		perm, err := RunScenarios(shuffled, opts)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := ordered.EncodeJSON()
		b, _ := perm.EncodeJSON()
		if !bytes.Equal(a, b) {
			t.Fatalf("NoFork=%v: artifact depends on scenario order", noFork)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	s1 := DeriveSeed(42, "a/b/c/s1", 1)
	if DeriveSeed(42, "a/b/c/s1", 1) != s1 {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(43, "a/b/c/s1", 1) == s1 {
		t.Fatal("DeriveSeed ignores base seed")
	}
	if DeriveSeed(42, "a/b/c/s2", 1) == s1 {
		t.Fatal("DeriveSeed ignores key")
	}
	if DeriveSeed(42, "a/b/c/s1", 2) == s1 {
		t.Fatal("DeriveSeed ignores scenario seed")
	}
}

func TestBaseSeedChangesArtifact(t *testing.T) {
	m := testMatrix()
	c1, err := Run(m, RunnerOpts{Workers: 2, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Run(m, RunnerOpts{Workers: 2, BaseSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c1.EncodeJSON()
	b, _ := c2.EncodeJSON()
	if bytes.Equal(a, b) {
		t.Fatal("base seed does not reach the scenarios")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	c, err := Run(testMatrix(), RunnerOpts{Workers: 4, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.EncodeJSON()
	b, _ := loaded.EncodeJSON()
	if !bytes.Equal(a, b) {
		t.Fatal("artifact did not round-trip")
	}
}

func TestCompare(t *testing.T) {
	base, err := Run(testMatrix(), RunnerOpts{Workers: 4, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Identical campaigns: clean.
	cur, err := Run(testMatrix(), RunnerOpts{Workers: 2, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cmp := Compare(base, cur, 2)
	if !cmp.Clean() || len(cmp.Improvements) != 0 {
		t.Fatalf("identical campaigns not clean: %s", FormatComparison(cmp))
	}
	if cmp.Compared == 0 {
		t.Fatal("nothing compared")
	}

	// Perturb one scenario's makespan by +50%: one regression.
	perturbed := *cur
	perturbed.Results = append([]Result(nil), cur.Results...)
	perturbed.Results[0].MakespanNs = base.Results[0].MakespanNs * 3 / 2
	cmp = Compare(base, &perturbed, 2)
	if len(cmp.Regressions) != 1 {
		t.Fatalf("want 1 regression, got %d:\n%s", len(cmp.Regressions), FormatComparison(cmp))
	}
	if cmp.Regressions[0].Key != perturbed.Results[0].Key || cmp.Regressions[0].Metric != "makespan_s" {
		t.Fatalf("wrong regression: %+v", cmp.Regressions[0])
	}

	// A scenario that stops completing is always flagged.
	perturbed.Results[0] = base.Results[0]
	perturbed.Results[1].Completed = false
	cmp = Compare(base, &perturbed, 2)
	if len(cmp.NewlyIncomplete) != 1 || cmp.Clean() {
		t.Fatalf("newly-incomplete not flagged:\n%s", FormatComparison(cmp))
	}

	// Missing and new keys are reported.
	shrunk := *base
	shrunk.Results = base.Results[1:]
	cmp = Compare(base, &shrunk, 2)
	if len(cmp.MissingKeys) != 1 {
		t.Fatalf("missing key not reported:\n%s", FormatComparison(cmp))
	}
}

func TestWorkloadByName(t *testing.T) {
	for _, name := range []string{"make2r", "tpch", "globalq", "nas:lu", "nas:ep", "nas-pin:lu", "nas-pin:cg",
		"nas-hotplug:lu", "nas-hotplug:cg", "nas-hotplug-storm:lu:4", "nas-hotplug-storm:cg:2",
		"serve:3000", "serve:750"} {
		w, ok := WorkloadByName(name)
		if !ok || w.Name != name {
			t.Errorf("WorkloadByName(%q) = %q, %v", name, w.Name, ok)
		}
	}
	for _, name := range []string{"nas:nope", "nas-pin:nope", "nas-hotplug:nope", "bogus",
		"nas-hotplug-storm:lu", "nas-hotplug-storm:nope:3", "nas-hotplug-storm:lu:0",
		"serve:0", "serve:fast"} {
		if _, ok := WorkloadByName(name); ok {
			t.Errorf("WorkloadByName(%q) unexpectedly ok", name)
		}
	}
}

// TestLatticeConfigs: the 2^4 lattice enumerates distinct names and
// feature sets, bounded by the fully-buggy and fully-fixed kernels, and
// every lattice name resolves through ConfigByName.
func TestLatticeConfigs(t *testing.T) {
	configs := policy.LatticeConfigs()
	if len(configs) != 16 {
		t.Fatalf("lattice size = %d, want 16", len(configs))
	}
	if configs[0].Name != "fx-none" {
		t.Errorf("mask 0 = %q, want fx-none", configs[0].Name)
	}
	if configs[15].Name != "fx-gi+gc+oow+md" {
		t.Errorf("mask 15 = %q, want fx-gi+gc+oow+md", configs[15].Name)
	}
	if configs[0].Config.Features != 0 {
		t.Error("fx-none has fixes enabled")
	}
	if configs[15].Config.Features != sched.AllFixes {
		t.Error("full mask misses fixes")
	}
	seenName := map[string]bool{}
	seenFeat := map[sched.Features]bool{}
	for mask, c := range configs {
		if seenName[c.Name] || seenFeat[c.Config.Features] {
			t.Fatalf("mask %d duplicates name or features (%s)", mask, c.Name)
		}
		seenName[c.Name] = true
		seenFeat[c.Config.Features] = true
		got, ok := ConfigByName(c.Name)
		if !ok || got.Name != c.Name || got.Config.Features != c.Config.Features {
			t.Errorf("ConfigByName(%q) mismatch", c.Name)
		}
	}
}

// latticeMatrix is a one-cell lattice over a scenario with confirmed
// episodes, so the per-class artifact fields are exercised.
func latticeMatrix() Matrix {
	return Matrix{
		Topologies: MustTopologies("bulldozer8"),
		Workloads:  MustWorkloads("nas-pin:lu"),
		Configs:    policy.LatticeConfigs(),
		Seeds:      []int64{1},
		Scale:      0.25,
		Horizon:    100 * sim.Second,
	}
}

// TestLatticeDeterminism extends the determinism property to the
// lattice artifacts with their per-class episode maps: byte-identical
// for workers 1, 4 and NumCPU, and for shuffled scenario order.
func TestLatticeDeterminism(t *testing.T) {
	m := latticeMatrix()
	var artifacts [][]byte
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		c, err := Run(m, RunnerOpts{Workers: workers, BaseSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, data)
	}
	for i := 1; i < len(artifacts); i++ {
		if !bytes.Equal(artifacts[0], artifacts[i]) {
			t.Fatalf("lattice artifact differs across worker counts (run %d)", i)
		}
	}
	scs := m.Scenarios()
	rand.New(rand.NewSource(3)).Shuffle(len(scs), func(i, j int) {
		scs[i], scs[j] = scs[j], scs[i]
	})
	perm, err := RunScenarios(scs, RunnerOpts{Workers: 4, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := perm.EncodeJSON()
	if !bytes.Equal(artifacts[0], data) {
		t.Fatal("lattice artifact depends on scenario order")
	}
}

// TestEpisodeClassBreakdown: a buggy run's artifact carries the
// per-class episode maps, and they add up to the totals.
func TestEpisodeClassBreakdown(t *testing.T) {
	c, err := Run(latticeMatrix(), RunnerOpts{Workers: 4, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	buggy := c.Result("bulldozer8/nas-pin:lu/fx-none/s1")
	if buggy == nil || buggy.Violations == 0 {
		t.Fatal("buggy lattice point clean; cannot exercise the breakdown")
	}
	if buggy.EpisodeClasses["group-construction"] == 0 {
		t.Errorf("episode classes = %v, want group-construction", buggy.EpisodeClasses)
	}
	episodes, idle := 0, int64(0)
	for _, n := range buggy.EpisodeClasses {
		episodes += n
	}
	for _, ns := range buggy.IdleNsByClass {
		idle += ns
	}
	if episodes != buggy.Violations || idle != buggy.IdleWhileOverloadedNs {
		t.Errorf("breakdown does not sum: %d/%d episodes, %d/%d ns",
			episodes, buggy.Violations, idle, buggy.IdleWhileOverloadedNs)
	}
	fixed := c.Result("bulldozer8/nas-pin:lu/fx-gc/s1")
	if fixed == nil {
		t.Fatal("fx-gc lattice point missing")
	}
	if fixed.EpisodeClasses["group-construction"] != 0 {
		t.Errorf("fixed run still shows group-construction episodes: %v", fixed.EpisodeClasses)
	}
}

// TestLatencyArtifactFields: every executed artifact is stamped with
// the model version and streak threshold, and a busy scenario carries
// both digests with self-consistent numbers.
func TestLatencyArtifactFields(t *testing.T) {
	c, err := Run(latticeMatrix(), RunnerOpts{Workers: 4, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if c.ModelVersion != ModelVersion {
		t.Errorf("artifact model version %q, want %q", c.ModelVersion, ModelVersion)
	}
	if c.StreakK != 4 {
		t.Errorf("artifact streak threshold %d, want the default 4", c.StreakK)
	}
	// nas-pin:lu is spin-based (no blocking wakeups): it records waits
	// but no wake delays. The wake digest needs a wakeup-heavy scenario.
	if r := c.Result("bulldozer8/nas-pin:lu/fx-none/s1"); r.WakeLatency != nil || r.RunqWait == nil {
		t.Fatalf("spin workload digests: wake=%v wait=%v, want nil/non-nil", r.WakeLatency, r.RunqWait)
	}
	tm := Matrix{
		Topologies: MustTopologies("bulldozer8"),
		Workloads:  MustWorkloads("tpch"),
		Configs:    MustConfigs("bugs"),
		Seeds:      []int64{1},
		Scale:      0.25,
		Horizon:    100 * sim.Second,
	}
	ct, err := Run(tm, RunnerOpts{Workers: 1, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r := ct.Result("bulldozer8/tpch/bugs/s1")
	if r.WakeLatency == nil || r.RunqWait == nil {
		t.Fatalf("wakeup-heavy scenario has no latency digests: %+v", r)
	}
	for _, d := range []struct {
		name string
		d    *latency.Digest
	}{{"wake", r.WakeLatency}, {"wait", r.RunqWait}} {
		if d.d.Count == 0 {
			t.Errorf("%s digest empty", d.name)
		}
		if !(d.d.P50Ns <= d.d.P95Ns && d.d.P95Ns <= d.d.P99Ns && d.d.P99Ns <= d.d.MaxNs) {
			t.Errorf("%s digest percentiles out of order: %+v", d.name, d.d)
		}
	}
	// Every wakeup-to-run delay is also a runqueue wait.
	if r.RunqWait.Count < r.WakeLatency.Count {
		t.Errorf("wait count %d < wake count %d", r.RunqWait.Count, r.WakeLatency.Count)
	}
	// A custom threshold reaches the artifact stamp.
	c2, err := RunScenarios(nil, RunnerOpts{BaseSeed: 42, StreakK: 9})
	if err != nil {
		t.Fatal(err)
	}
	if c2.StreakK != 9 {
		t.Errorf("custom streak threshold not stamped: %d", c2.StreakK)
	}
}

// TestServeWorkload: the request-serving scenario completes, reports
// ordered per-request percentiles, and serves every injected request.
func TestServeWorkload(t *testing.T) {
	m := Matrix{
		Topologies: MustTopologies("bulldozer8"),
		Workloads:  MustWorkloads("serve:3000"),
		Configs:    MustConfigs("bugs", "fixed"),
		Seeds:      []int64{1},
		Scale:      0.25,
		Horizon:    50 * sim.Second,
	}
	c, err := Run(m, RunnerOpts{Workers: 2, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"bulldozer8/serve:3000/bugs/s1", "bulldozer8/serve:3000/fixed/s1"} {
		r := c.Result(key)
		if r == nil || !r.Completed {
			t.Fatalf("%s missing or incomplete", key)
		}
		e := r.Extra
		if e["served"] < 50 {
			t.Errorf("%s served %v requests, want >= 50", key, e["served"])
		}
		if !(e["serve_p50_ms"] <= e["serve_p95_ms"] && e["serve_p95_ms"] <= e["serve_p99_ms"] &&
			e["serve_p99_ms"] <= e["serve_max_ms"]) {
			t.Errorf("%s percentiles out of order: %v", key, e)
		}
		if e["serve_p50_ms"] <= 0 {
			t.Errorf("%s p50 = %v, want > 0", key, e["serve_p50_ms"])
		}
	}
}

// TestHotplugStormWorkload: the storm generalizes the single-cycle
// Table 3 run — domains are rebuilt once per disable/enable, the bug
// still cripples the run, and the Missing Domains fix restores it.
func TestHotplugStormWorkload(t *testing.T) {
	m := Matrix{
		Topologies: MustTopologies("bulldozer8"),
		Workloads:  MustWorkloads("nas-hotplug-storm:lu:3"),
		Configs:    MustConfigs("bugs", "fix-md"),
		Seeds:      []int64{1},
		Scale:      0.25,
		Horizon:    100 * sim.Second,
	}
	c, err := Run(m, RunnerOpts{Workers: 2, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	buggy := c.Result("bulldozer8/nas-hotplug-storm:lu:3/bugs/s1")
	fixed := c.Result("bulldozer8/nas-hotplug-storm:lu:3/fix-md/s1")
	if buggy == nil || fixed == nil || !buggy.Completed || !fixed.Completed {
		t.Fatalf("storm scenarios missing or incomplete:\n%s", c.FormatSummary())
	}
	// 3 cycles = 6 hotplug transitions = 6 rebuilds beyond the initial
	// domain build (rebuilds also happen at Start, which does not count
	// the counter).
	if buggy.Counters.DomainRebuilds < 6 {
		t.Errorf("buggy run rebuilt domains %d times, want >= 6", buggy.Counters.DomainRebuilds)
	}
	if ratio := float64(buggy.MakespanNs) / float64(fixed.MakespanNs); ratio < 2 {
		t.Errorf("storm bug/fix makespan ratio = %.2f, want >= 2", ratio)
	}
	if buggy.IdleWhileOverloadedNs == 0 {
		t.Error("buggy storm run shows no idle-while-overloaded time")
	}
}

func TestRegistryLookups(t *testing.T) {
	if _, ok := TopologyByName("bulldozer8"); !ok {
		t.Error("bulldozer8 missing")
	}
	if _, ok := ConfigByName("fixed"); !ok {
		t.Error("fixed missing")
	}
	if _, ok := MatrixByName("default"); !ok {
		t.Error("default matrix missing")
	}
	if _, ok := MatrixByName("nope"); ok {
		t.Error("bogus matrix found")
	}
	cfg, _ := ConfigByName("modsched")
	if len(cfg.Modules) == 0 {
		t.Error("modsched config has no modules")
	}
}

// TestBrokenNodePair checks the Table 1 emulation: on the Bulldozer
// machine the buggy-group analysis must find the paper's pair, nodes 1
// and 2 (the first broken pair in node order).
func TestBrokenNodePair(t *testing.T) {
	a, b, ok := brokenNodePair(topology.Bulldozer8())
	if !ok || a != 1 || b != 2 {
		t.Fatalf("bulldozer8 broken pair = (%d,%d,%v), want (1,2,true)", a, b, ok)
	}
	a, b, ok = brokenNodePair(topology.Machine32())
	if !ok || a != 1 || b != 2 {
		t.Fatalf("machine32 broken pair = (%d,%d,%v), want (1,2,true)", a, b, ok)
	}
	if _, _, ok := brokenNodePair(topology.SMP(8)); ok {
		t.Fatal("single-node machine cannot have a broken pair")
	}
	// TwoNode has no 2-hop pair: falls back to the farthest pair.
	a, b, ok = brokenNodePair(topology.TwoNode(4))
	if !ok || a != 0 || b != 1 {
		t.Fatalf("twonode fallback pair = (%d,%d,%v), want (0,1,true)", a, b, ok)
	}
}

// TestPinnedBugScenario is the end-to-end sanity check that the
// campaign can see the paper's Scheduling Group Construction bug: the
// pinned lu run must be several times slower with the bug than with
// the fix, and only the buggy run accumulates idle-while-overloaded
// time.
func TestPinnedBugScenario(t *testing.T) {
	topo, _ := TopologyByName("bulldozer8")
	wl, _ := WorkloadByName("nas-pin:lu")
	bugs, _ := ConfigByName("bugs")
	fixGC, _ := ConfigByName("fix-gc")
	m := Matrix{
		Topologies: []TopologySpec{topo},
		Workloads:  []Workload{wl},
		Configs:    []ConfigSpec{bugs, fixGC},
		Seeds:      []int64{1},
		Scale:      0.25,
		Horizon:    100 * sim.Second,
	}
	c, err := Run(m, RunnerOpts{Workers: 2, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	buggy := c.Result("bulldozer8/nas-pin:lu/bugs/s1")
	fixed := c.Result("bulldozer8/nas-pin:lu/fix-gc/s1")
	if buggy == nil || fixed == nil {
		t.Fatalf("missing results in %s", c.FormatSummary())
	}
	if !buggy.Completed || !fixed.Completed {
		t.Fatal("runs hit the horizon")
	}
	if ratio := float64(buggy.MakespanNs) / float64(fixed.MakespanNs); ratio < 3 {
		t.Errorf("bug/fix makespan ratio = %.2f, want >= 3", ratio)
	}
	if buggy.IdleWhileOverloadedNs == 0 || buggy.Violations == 0 {
		t.Error("buggy run shows no idle-while-overloaded time")
	}
	if fixed.IdleWhileOverloadedNs != 0 {
		t.Error("fixed run shows idle-while-overloaded time")
	}
}

// TestTraceCapture: with Trace on, confirmed violations switch the
// recorder on and the event count lands in the artifact.
func TestTraceCapture(t *testing.T) {
	topo, _ := TopologyByName("bulldozer8")
	wl, _ := WorkloadByName("nas-pin:lu")
	bugs, _ := ConfigByName("bugs")
	m := Matrix{
		Topologies: []TopologySpec{topo},
		Workloads:  []Workload{wl},
		Configs:    []ConfigSpec{bugs},
		Seeds:      []int64{1},
		Scale:      0.25,
		Horizon:    100 * sim.Second,
	}
	c, err := Run(m, RunnerOpts{Workers: 1, BaseSeed: 42, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Results[0].TraceEvents == 0 {
		t.Error("no trace events captured around violations")
	}
}
