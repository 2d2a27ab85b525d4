package explain_test

import (
	"bytes"
	"testing"

	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/machine"
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
		Configs:    campaign.LatticeConfigs()[:1], // fx-none: the studied kernel
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
	fixed.Features.FixGroupImbalance = true

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
