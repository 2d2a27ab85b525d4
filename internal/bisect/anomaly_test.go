package bisect

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/policy"
	"repro/internal/sched"
)

// TestMinLoadAnomalySweep is the dedicated sweep ROADMAP asked for, and
// the characterization test of its verdict: under affinity pinning the
// Group Imbalance fix (min-load comparison, §3.1) re-introduces
// idle-while-overloaded time even on top of the Group Construction fix.
//
// Verdict (recorded in ROADMAP): this is a real modeled pathology, not
// a simulator artifact. With `numactl --cpunodebind=1,2` pinning, every
// overlapping machine-level scheduling group contains nodes whose cores
// are idle because the pinned application cannot run there. Their load
// is 0, so the min-load metric of every group — including the one
// holding the overloaded node — evaluates to 0, the balancer sees no
// group as busier than any other, and the imbalance persists. The
// checker classifies these episodes as group-imbalance (the balancer's
// own metric masks the imbalance), and the average-load comparison the
// fix replaced does not suffer from it, because a crowded node keeps a
// nonzero average. The paper's fixes were evaluated on unpinned
// workloads for §3.1; the interaction only appears when pinning and the
// min-load comparison meet — exactly the combinational corner the
// lattice walk exists to find.
func TestMinLoadAnomalySweep(t *testing.T) {
	o := smokeWithSeed()
	o.Workloads = campaign.MustWorkloads("nas-pin:lu")
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	cell := r.Cell("bulldozer8", "nas-pin:lu", 1)
	if cell == nil {
		t.Fatal("cell missing")
	}

	find := func(f sched.Features) int64 {
		res := r.Campaign.Result("bulldozer8/nas-pin:lu/" + policy.LatticeConfigName(f) + "/s1")
		if res == nil {
			t.Fatalf("missing lattice point %s", policy.LatticeConfigName(f))
		}
		return res.IdleWhileOverloadedNs
	}

	gc := find(sched.FixGroupConstruction)
	gigc := find(sched.FixGroupImbalance | sched.FixGroupConstruction)
	window := r.CheckerMNs

	// Characterization: gc alone leaves at most startup transients; the
	// gi+gc combination re-introduces an order of magnitude more.
	if gc > 2*window {
		t.Errorf("fx-gc idle-while-overloaded = %dns, want <= 2 monitoring windows", gc)
	}
	if gigc < 10*window {
		t.Errorf("fx-gi+gc idle-while-overloaded = %dns, want >= 10 windows (the anomaly)", gigc)
	}
	if gigc <= gc {
		t.Errorf("anomaly gone: fx-gi+gc (%d) <= fx-gc (%d); update ROADMAP's verdict", gigc, gc)
	}

	// The re-introduced episodes carry the group-imbalance signature:
	// the min-load metric is what masks the imbalance.
	combined := r.Campaign.Result("bulldozer8/nas-pin:lu/fx-gi+gc/s1")
	if combined.EpisodeClasses["group-imbalance"] == 0 {
		t.Errorf("re-introduced episodes classified %v, want group-imbalance", combined.EpisodeClasses)
	}

	// And the lattice walk reports it: the minimal fix set stays {gc},
	// with a non-monotone edge {gc}+gi.
	if !reflect.DeepEqual(cell.MinimalFixSets, []string{"gc"}) {
		t.Errorf("minimal fix sets = %v, want [gc]", cell.MinimalFixSets)
	}
	found := false
	for _, in := range cell.Interactions {
		if in.Base == "gc" && in.Added == "gi" {
			found = true
		}
	}
	if !found {
		t.Errorf("interaction report misses the {gc}+gi edge: %+v", cell.Interactions)
	}
}

// TestSeedSweepStability runs the smoke lattice across seeds 1..8 and
// asserts every (topology, workload) verdict — minimal fix sets,
// per-class attributions and interaction edges — is seed-stable. An
// unstable cell fails with the full signature-by-seed breakdown rather
// than silently passing or silently flaking.
func TestSeedSweepStability(t *testing.T) {
	o := smokeWithSeed()
	o.Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	stabilities := r.SeedStability()
	if len(stabilities) != 3 {
		t.Fatalf("stability groups = %d, want 3", len(stabilities))
	}
	for _, st := range stabilities {
		if len(st.Seeds) != len(o.Seeds) {
			t.Errorf("%s/%s covered seeds %v, want %v", st.Topology, st.Workload, st.Seeds, o.Seeds)
		}
		if st.Workload == "tpch" {
			// The §3.3 cell is the reason the streak/latency axes exist:
			// its episodes are too short for checker confirmation, and its
			// makespan verdict is seed-UNSTABLE (several fix sets tie
			// within the perf tolerance, differently per seed). The
			// episode-level witnesses must be what the makespan is not —
			// stable at {oow} for every seed — and that is asserted below,
			// outside the full-signature check.
			continue
		}
		if st.Stable {
			continue
		}
		t.Errorf("%s/%s verdict is seed-unstable across %d signatures:", st.Topology, st.Workload, len(st.Signatures))
		for sig, seeds := range st.Signatures {
			t.Errorf("  seeds %v: %s", seeds, sig)
		}
	}

	// TPC-H: streak and latency verdicts are {oow} at every seed.
	for _, seed := range o.Seeds {
		cell := r.Cell("bulldozer8", "tpch", seed)
		if cell == nil {
			t.Fatalf("tpch cell for seed %d missing", seed)
		}
		if cell.BaselineStreaks == 0 {
			t.Errorf("tpch seed %d: no baseline wakeup streaks (witness lost)", seed)
		}
		if !reflect.DeepEqual(cell.StreakMinimalFixSets, []string{"oow"}) {
			t.Errorf("tpch seed %d: streak minimal sets = %v, want [oow]", seed, cell.StreakMinimalFixSets)
		}
		if !reflect.DeepEqual(cell.LatencyMinimalFixSets, []string{"oow"}) {
			t.Errorf("tpch seed %d: latency minimal sets = %v, want [oow]", seed, cell.LatencyMinimalFixSets)
		}
	}
}
