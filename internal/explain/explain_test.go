package explain_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/explain"
	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// bisectLens is the dense checker lens the bisect sweeps run under; the
// explain acceptance story (TPC-H streak attribution) lives at this
// lens.
func bisectLens() checker.Config {
	return checker.Config{S: 20 * sim.Millisecond, M: 15 * sim.Millisecond}
}

func smokeScenarios(t *testing.T, workloads ...string) []campaign.Scenario {
	t.Helper()
	m := campaign.Matrix{
		Topologies: campaign.MustTopologies("bulldozer8"),
		Workloads:  campaign.MustWorkloads(workloads...),
		Configs:    policy.LatticeConfigs()[:1], // fx-none: the studied kernel
		Seeds:      []int64{1},
		Scale:      0.5,
		Horizon:    100 * sim.Second,
	}
	return m.Scenarios()
}

// TestTPCHStreakAttribution is the acceptance property: under the bisect
// lens the TPC-H cell confirms no checker episodes (they are too short),
// but its wakeup streaks become explain episodes whose counterfactual
// replays attribute the pathology to the overload-on-wakeup fix — the
// same verdict the bisect lattice walk reaches statistically ({oow}).
func TestTPCHStreakAttribution(t *testing.T) {
	c, err := campaign.RunScenarios(smokeScenarios(t, "tpch"), campaign.RunnerOpts{
		Workers: 1, BaseSeed: 42, Checker: bisectLens(), Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := c.Results[0].Explain
	if ex == nil {
		t.Fatal("explain report missing with Explain on")
	}
	if ex.Decisions == 0 {
		t.Error("no decision records counted")
	}
	if ex.StreakEpisodes == 0 {
		t.Fatalf("no streak episodes replayed: %+v", ex)
	}
	if !ex.Attributed("oow") {
		for _, ep := range ex.Episodes {
			t.Logf("episode kind=%s onset=%v control-persisted=%v attribution=%v",
				ep.Kind, sim.Time(ep.OnsetNs), ep.Control.Persisted, ep.Attribution)
		}
		t.Fatal("no TPC-H episode attributed to oow")
	}
}

// TestCheckerEpisodeReplays exercises the checker-episode path on a cell
// with confirmed violations (nas-pin under the bisect lens) and checks
// the replays carry evidence: a control world, four fix replays in
// canonical order, and provenance-backed divergence for at least one
// erasing fix.
func TestCheckerEpisodeReplays(t *testing.T) {
	c, err := campaign.RunScenarios(smokeScenarios(t, "nas-pin:lu"), campaign.RunnerOpts{
		Workers: 1, BaseSeed: 42, Checker: bisectLens(), Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := c.Results[0]
	if r.Violations == 0 {
		t.Skip("scenario confirmed no violations at this lens; nothing to replay")
	}
	ex := r.Explain
	if ex == nil || ex.CheckerEpisodes == 0 {
		t.Fatalf("confirmed %d violations but replayed no checker episodes: %+v", r.Violations, ex)
	}
	for i, ep := range ex.Episodes {
		if ep.Kind != "checker" {
			continue
		}
		if len(ep.Fixes) != 4 {
			t.Fatalf("episode %d: %d fix replays, want 4", i, len(ep.Fixes))
		}
		if ep.OnsetNs > ep.DetectedNs || ep.DetectedNs >= ep.ConfirmedNs {
			t.Errorf("episode %d: onset %d / detected %d / confirmed %d out of order",
				i, ep.OnsetNs, ep.DetectedNs, ep.ConfirmedNs)
		}
		for _, f := range ep.Fixes {
			if f.Erases && f.FirstDivergence == nil && f.Events == ep.Control.Events {
				t.Errorf("episode %d: fix %s erases but replay is indistinguishable from control", i, f.Fix)
			}
		}
	}
}

// TestExplainDeterminism is the report-level property: explain-on
// artifacts are byte-identical across worker counts and scenario order.
func TestExplainDeterminism(t *testing.T) {
	scs := smokeScenarios(t, "tpch", "nas-pin:lu", "make2r")
	opts := func(workers int) campaign.RunnerOpts {
		return campaign.RunnerOpts{Workers: workers, BaseSeed: 42, Checker: bisectLens(), Explain: true}
	}
	a, err := campaign.RunScenarios(scs, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]campaign.Scenario, len(scs))
	for i, sc := range scs {
		reversed[len(scs)-1-i] = sc
	}
	b, err := campaign.RunScenarios(reversed, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("explain artifacts differ across worker count / scenario order")
	}
}

// TestForkAtOnsetReplayMatchesFreshRun is the counterfactual-validity
// property: forking a world mid-run and enabling a fix must be
// byte-identical to a fresh run that had the fix from t=0, provided the
// fix had not yet influenced any decision at the fork instant. The Group
// Imbalance fix only acts inside balance passes, so a fork taken before
// the first balance pass satisfies that by construction — the test
// asserts it, forks, applies the fix, and drives both worlds to
// completion expecting identical makespans, event counts and counters.
func TestForkAtOnsetReplayMatchesFreshRun(t *testing.T) {
	app, ok := workload.NASAppByName("lu")
	if !ok {
		t.Fatal("unknown NAS app lu")
	}
	launch := func(cfg sched.Config) (*machine.Machine, *machine.Proc) {
		m := machine.New(topology.SMP(8), cfg, 7)
		p := app.Launch(m, workload.NASLaunchOpts{Threads: 16, Seed: 5, Scale: 0.1})
		return m, p
	}

	bugs := sched.DefaultConfig()
	fixed := bugs
	fixed.Features |= sched.FixGroupImbalance

	m, p := launch(bugs)
	forkAt := 500 * sim.Microsecond
	m.Run(forkAt)
	if passes := m.Sched.Counters().BalanceCalls; passes != 0 {
		t.Fatalf("%d balance passes before %v; pick an earlier fork instant", passes, forkAt)
	}

	f := m.Fork()
	f.Sched.ApplyFeatures(fixed.Features)
	var fp *machine.Proc
	for i, op := range m.Procs() {
		if op == p {
			fp = f.Procs()[i]
		}
	}
	if fp == nil {
		t.Fatal("forked proc not found")
	}

	fresh, freshP := launch(fixed)
	horizon := 100 * sim.Second
	endFork, okFork := f.RunUntilDone(horizon, fp)
	endFresh, okFresh := fresh.RunUntilDone(horizon, freshP)
	if !okFork || !okFresh {
		t.Fatalf("runs incomplete: fork %v fresh %v", okFork, okFresh)
	}
	if endFork != endFresh {
		t.Errorf("makespans differ: fork %v, fresh %v", endFork, endFresh)
	}
	if f.Eng.Processed() != fresh.Eng.Processed() {
		t.Errorf("processed events differ: fork %d, fresh %d", f.Eng.Processed(), fresh.Eng.Processed())
	}
	if ca, cb := f.Sched.Counters(), fresh.Sched.Counters(); ca != cb {
		t.Errorf("scheduler counters differ:\n fork  %+v\n fresh %+v", ca, cb)
	}
}

// TestCopiedReplaysMatchSimulated: a fix replay that explain copies
// from the control equals the replay it would simulate. Explain runs
// every lattice config of bulldozer8 over tpch, nas-hotplug:lu and
// make2r, once as usual and once with every fix simulated; the two
// artifacts must be byte-identical. So that the comparison cannot pass
// vacuously, the usual run must copy a fix already in the scenario's
// features and a construction fix the probe cleared, and on
// nas-hotplug, where hotplug can make the probe fire, simulate an md
// replay. A last world, where no balance pass can steal, holds a streak
// episode whose gi replay the probe would clear although its records
// differ from the control's, so the copies must stay limited to the
// construction fixes.
func TestCopiedReplaysMatchSimulated(t *testing.T) {
	var mu sync.Mutex
	var counts map[string]int
	*explain.FixReplayed = func(fix, how string) {
		mu.Lock()
		counts[how]++
		counts[how+" "+fix]++
		mu.Unlock()
	}
	t.Cleanup(func() { *explain.FixReplayed = nil; *explain.ReplayEveryFix = false })

	run := func(wl string, every bool) []byte {
		*explain.ReplayEveryFix = every
		m := campaign.Matrix{
			Topologies: campaign.MustTopologies("bulldozer8"),
			Workloads:  campaign.MustWorkloads(wl),
			Configs:    policy.LatticeConfigs(),
			Seeds:      []int64{1},
			Scale:      0.1,
			Horizon:    100 * sim.Second,
		}
		c, err := campaign.RunScenarios(m.Scenarios(), campaign.RunnerOpts{
			Workers: 2, BaseSeed: 42, Checker: bisectLens(), Explain: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	var inBase, cleared int
	for _, wl := range []string{"tpch", "nas-hotplug:lu", "make2r"} {
		counts = map[string]int{}
		copied := run(wl, false)
		used := counts
		counts = map[string]int{}
		simulated := run(wl, true)
		if !bytes.Equal(copied, simulated) {
			t.Errorf("%s: artifact with copied fix replays differs from the one simulating every fix", wl)
		}
		t.Logf("%s: %v", wl, used)
		inBase += used["in-base"]
		cleared += used["cleared"]
		if wl == "nas-hotplug:lu" && used["simulated md"] == 0 {
			t.Errorf("%s: no md replay simulated; the fired-probe path went unchecked", wl)
		}
	}
	if inBase == 0 || cleared == 0 {
		t.Errorf("copied %d in-base and %d probe-cleared fix replays, want both > 0", inBase, cleared)
	}

	// Three hogs on bulldozer8 never queue, so every balance pass ends
	// with no busiest group under either gi setting, but a pass's record
	// carries its local group's metric: the minimum load under gi, the
	// average without.
	idleWorld := func(every bool) *explain.ScenarioExplain {
		*explain.ReplayEveryFix = every
		m := machine.New(topology.Bulldozer8(), sched.DefaultConfig(), 7)
		o := explain.NewObserver(m, explain.Config{Checker: bisectLens()})
		p := m.NewProc("hogs", machine.ProcOpts{})
		prog := machine.NewProgram().Compute(sim.Second).Build()
		for i := 0; i < 3; i++ {
			p.Spawn(prog, machine.SpawnOpts{})
		}
		m.Run(30 * sim.Millisecond)
		o.OnStreak(m.Eng.Now(), m.Eng.Now())
		m.Run(sim.Millisecond)
		return o.Report()
	}
	copied, simulated := idleWorld(false), idleWorld(true)
	if len(simulated.Episodes) != 1 || simulated.Episodes[0].Fixes[0].FirstDivergence == nil {
		t.Fatalf("idle world: want one episode whose gi replay diverges, got %+v", simulated)
	}
	if !reflect.DeepEqual(copied, simulated) {
		t.Errorf("idle world: report with copied fix replays differs from the one simulating every fix")
	}
}
