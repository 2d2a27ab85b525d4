package tourney

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/latency"
	"repro/internal/sched"
	"repro/internal/sim"
)

// tinyOptions is a single-cell tournament over the full smoke lineup —
// nine policies, one (topology, workload, seed) cell — small enough for
// the property tests that run the tournament several times.
func tinyOptions() Options {
	o := SmokeOptions()
	o.BaseSeed = 42
	o.Workloads = campaign.MustWorkloads("make2r")
	return o
}

// TestReportDeterminism is the property test over the tournament
// artifact: byte-identical for workers 1, 4 and NumCPU, and for
// shuffled scenario order through the campaign layer.
func TestReportDeterminism(t *testing.T) {
	var artifacts [][]byte
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		o := tinyOptions()
		o.Workers = workers
		r, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		data, err := r.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, data)
	}
	for i := 1; i < len(artifacts); i++ {
		if !bytes.Equal(artifacts[0], artifacts[i]) {
			t.Fatalf("tourney artifact differs across worker counts (run %d)", i)
		}
	}

	// Shuffled scenario order through the campaign layer, re-analyzed.
	o := tinyOptions()
	scs := o.Matrix().Scenarios()
	rand.New(rand.NewSource(11)).Shuffle(len(scs), func(i, j int) {
		scs[i], scs[j] = scs[j], scs[i]
	})
	c, err := campaign.RunScenarios(scs, campaign.RunnerOpts{
		Workers: 4, BaseSeed: o.BaseSeed, Checker: o.Checker,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Analyze(c, o)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(artifacts[0], data) {
		t.Fatal("tourney artifact depends on scenario order")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	o := tinyOptions()
	o.Workers = 4
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tourney.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := r.EncodeJSON()
	b, _ := loaded.EncodeJSON()
	if !bytes.Equal(a, b) {
		t.Fatal("artifact did not round-trip")
	}
	// The embedded campaign stays loadable by the campaign layer's
	// schema (baseline comparisons reuse campaign.Compare), and the
	// policy-version stamp covers the whole lineup.
	if loaded.Campaign == nil || loaded.Campaign.Version != campaign.Version {
		t.Fatal("embedded campaign artifact missing or mis-versioned")
	}
	for _, name := range smokePolicies {
		if loaded.Campaign.Policies[name] == 0 {
			t.Errorf("artifact has no policy-version stamp for %q", name)
		}
	}
	cmp := campaign.Compare(loaded.Campaign, r.Campaign, 2)
	if !cmp.Clean() {
		t.Fatalf("self-comparison not clean:\n%s", campaign.FormatComparison(cmp))
	}
	if diffs := CompareVerdicts(loaded, r); len(diffs) != 0 {
		t.Fatalf("self-comparison has verdict diffs: %v", diffs)
	}
}

func TestAnalyzeRejectsPartialArtifacts(t *testing.T) {
	o := tinyOptions()
	o.Workers = 4
	c, err := campaign.Run(o.Matrix(), campaign.RunnerOpts{
		Workers: 4, BaseSeed: o.BaseSeed, Checker: o.Checker,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A cell with one policy's result missing cannot be scored.
	holed := *c
	holed.Results = append([]campaign.Result(nil), c.Results...)
	holed.Results = append(holed.Results[:3], holed.Results[4:]...)
	if _, err := Analyze(&holed, o); err == nil {
		t.Error("Analyze accepted a cell with a missing policy result")
	}

	// One policy is not a tournament.
	solo := *c
	solo.Results = c.Results[:1]
	if _, err := Analyze(&solo, o); err == nil {
		t.Error("Analyze accepted a single-policy artifact")
	}

	if _, err := Analyze(&campaign.Campaign{}, o); err == nil {
		t.Error("Analyze accepted an empty artifact")
	}
}

// syntheticResult builds a minimal campaign result for verdict tests.
func syntheticResult(topo, load, config string, seed int64, makespan sim.Time, completed bool, p99 sim.Time, streaks int, migrations uint64) campaign.Result {
	return campaign.Result{
		Key:         topo + "/" + load + "/" + config + "/s1",
		Topology:    topo,
		Workload:    load,
		Config:      config,
		Seed:        seed,
		MakespanNs:  int64(makespan),
		Completed:   completed,
		Counters:    sched.Counters{Migrations: migrations},
		WakeLatency: &latency.Digest{P99Ns: int64(p99)},
		WakeStreaks: &latency.Streaks{Streaks: streaks},
	}
}

// syntheticCampaign: two cells, three policies, crafted so that on the
// makespan axis "alpha" and "beta" flip across cells while "gamma"
// never wins, and so that tolerance admits co-winners.
func syntheticCampaign() *campaign.Campaign {
	return &campaign.Campaign{
		Version: campaign.Version,
		Results: []campaign.Result{
			// Cell 1: alpha wins makespan outright; beta within 5% on
			// p99 thanks to the absolute slack; gamma incomplete.
			syntheticResult("t1", "w1", "alpha", 1, 100*sim.Millisecond, true, 1*sim.Microsecond, 0, 10),
			syntheticResult("t1", "w1", "beta", 1, 200*sim.Millisecond, true, 50*sim.Microsecond, 2, 10),
			syntheticResult("t1", "w1", "gamma", 1, 500*sim.Millisecond, false, 5*sim.Microsecond, 9, 99),
			// Cell 2: beta wins makespan; alpha loses beyond tolerance.
			syntheticResult("t1", "w2", "alpha", 1, 300*sim.Millisecond, true, 1*sim.Microsecond, 0, 10),
			syntheticResult("t1", "w2", "beta", 1, 150*sim.Millisecond, true, 1*sim.Microsecond, 0, 10),
			syntheticResult("t1", "w2", "gamma", 1, 310*sim.Millisecond, true, 1*sim.Microsecond, 0, 10),
		},
	}
}

func TestVerdictsAndFlips(t *testing.T) {
	r, err := Analyze(syntheticCampaign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 2 || len(r.Policies) != 3 {
		t.Fatalf("got %d cells, %d policies", len(r.Cells), len(r.Policies))
	}

	c1 := r.Cell("t1", "w1", 1)
	mk := cellVerdict(c1, AxisMakespan)
	if mk.Best != "alpha" || strings.Join(mk.Winners, ",") != "alpha" {
		t.Errorf("cell 1 makespan verdict: best %q winners %v", mk.Best, mk.Winners)
	}
	// Completed beats incomplete even at a smaller raw value: gamma hit
	// the horizon, so it must not enter the winner circle regardless of
	// numbers.
	for _, w := range mk.Winners {
		if w == "gamma" {
			t.Error("incomplete policy entered the makespan winner circle")
		}
	}
	// p99 axis: best is alpha at 1µs; beta's 50µs is within the 100µs
	// absolute slack, so both win.
	p99 := cellVerdict(c1, AxisP99Wake)
	if p99.Best != "alpha" || strings.Join(p99.Winners, ",") != "alpha,beta,gamma" {
		t.Errorf("cell 1 p99 verdict: best %q winners %v", p99.Best, p99.Winners)
	}
	// Streaks axis: integer counts get no absolute slack — best 0
	// demands 0.
	st := cellVerdict(c1, AxisStreaks)
	if st.Best != "alpha" || strings.Join(st.Winners, ",") != "alpha" {
		t.Errorf("cell 1 streak verdict: best %q winners %v", st.Best, st.Winners)
	}
	// Migrations: alpha and beta tie at 10; name order breaks the tie,
	// both are winners.
	mig := cellVerdict(c1, AxisMigrations)
	if mig.Best != "alpha" || strings.Join(mig.Winners, ",") != "alpha,beta" {
		t.Errorf("cell 1 migration verdict: best %q winners %v", mig.Best, mig.Winners)
	}

	c2 := r.Cell("t1", "w2", 1)
	if v := cellVerdict(c2, AxisMakespan); v.Best != "beta" {
		t.Errorf("cell 2 makespan best %q, want beta", v.Best)
	}

	// alpha and beta beat each other on makespan in different cells.
	var found bool
	for _, f := range r.Flips {
		if f.Axis == AxisMakespan && f.A == "alpha" && f.B == "beta" {
			found = true
			if strings.Join(f.ACells, ",") != "t1/w1/s1" || strings.Join(f.BCells, ",") != "t1/w2/s1" {
				t.Errorf("flip cells: A=%v B=%v", f.ACells, f.BCells)
			}
		}
		if f.Axis == AxisMakespan && (f.A == "alpha" && f.B == "gamma") {
			// gamma never beats alpha; a one-sided pair is not a flip.
			t.Error("one-sided pair reported as a flip")
		}
	}
	if !found {
		t.Error("alpha/beta makespan flip not detected")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base, err := Analyze(syntheticCampaign(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A makespan regression big enough to change the winner circle:
	// alpha falls behind beta in cell 1.
	worse := syntheticCampaign()
	worse.Results[0].MakespanNs = int64(400 * sim.Millisecond)
	cur, err := Analyze(worse, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diffs := CompareVerdicts(base, cur)
	if len(diffs) == 0 {
		t.Fatal("winner-circle change not detected")
	}
	if !strings.Contains(strings.Join(diffs, "\n"), "t1/w1/s1 makespan") {
		t.Errorf("diff does not name the changed cell/axis: %v", diffs)
	}

	// A missing cell is a verdict diff too.
	partial := *base
	partial.Cells = base.Cells[:1]
	if diffs := CompareVerdicts(base, &partial); len(diffs) == 0 {
		t.Error("missing cell not detected")
	}
	if diffs := CompareVerdicts(&partial, base); len(diffs) == 0 {
		t.Error("new cell not detected")
	}

	if diffs := CompareVerdicts(base, base); len(diffs) != 0 {
		t.Errorf("self-comparison has diffs: %v", diffs)
	}
}

func TestOptionsByName(t *testing.T) {
	for _, name := range []string{"smoke", "default", "full"} {
		o, ok := OptionsByName(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if len(o.Policies) < 2 || len(o.Topologies) == 0 || len(o.Workloads) == 0 {
			t.Errorf("preset %q under-specified", name)
		}
		if o.Matrix().Size() != len(o.Topologies)*len(o.Workloads)*len(o.Policies)*len(o.Seeds) {
			t.Errorf("preset %q matrix size mismatch", name)
		}
	}
	if _, ok := OptionsByName("nope"); ok {
		t.Error("unknown preset resolved")
	}
}

// FuzzDecode feeds Decode, the reader of tourney's -baseline input,
// arbitrary bytes, seeded with the committed tourney baseline. It must
// not panic, and an accepted artifact must re-encode to bytes that
// decode and re-encode identically.
func FuzzDecode(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "baselines", "tourney-*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed tourney baselines (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"campaign":{"version":1}}`))
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := r.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted artifact does not encode: %v", err)
		}
		r2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		enc2, err := r2.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable:\n%s\n---\n%s", enc, enc2)
		}
	})
}
