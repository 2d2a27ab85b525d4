package bisect

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/campaign"
)

func TestFixSetMatchesLattice(t *testing.T) {
	configs := campaign.LatticeConfigs()
	if len(configs) != NumSets {
		t.Fatalf("lattice has %d configs, want %d", len(configs), NumSets)
	}
	for mask, spec := range configs {
		f := FixSet(mask)
		if f.ConfigName() != spec.Name {
			t.Errorf("mask %d: ConfigName = %q, campaign name = %q", mask, f.ConfigName(), spec.Name)
		}
		if spec.Config.Features != f.Features() {
			t.Errorf("mask %d: features diverge: %+v vs %+v", mask, spec.Config.Features, f.Features())
		}
		got, ok := ParseConfigName(spec.Name)
		if !ok || got != f {
			t.Errorf("ParseConfigName(%q) = %v, %v; want %v", spec.Name, got, ok, f)
		}
		if campaign.LatticeConfigName(mask) != spec.Name {
			t.Errorf("LatticeConfigName(%d) = %q, want %q", mask, campaign.LatticeConfigName(mask), spec.Name)
		}
		// The lattice names resolve through the campaign registry too.
		if _, ok := campaign.ConfigByName(spec.Name); !ok {
			t.Errorf("ConfigByName(%q) not found", spec.Name)
		}
	}
	names := campaign.LatticeFixNames()
	for i, bit := range Singles() {
		if bit.String() != names[i] {
			t.Errorf("fix bit %d: name %q, campaign name %q", i, bit.String(), names[i])
		}
	}
}

func TestFixSetBasics(t *testing.T) {
	f := FixGI | FixOOW
	if f.String() != "gi+oow" {
		t.Errorf("String = %q", f.String())
	}
	if FixSet(0).String() != "none" || FixSet(0).ConfigName() != "fx-none" {
		t.Error("empty set misrendered")
	}
	if !f.Has(FixGI) || f.Has(FixGC) || !FixGI.SubsetOf(f) || f.SubsetOf(FixGI) {
		t.Error("Has/SubsetOf wrong")
	}
	if f.Count() != 2 || FixSet(15).Count() != 4 {
		t.Error("Count wrong")
	}
	if _, ok := Parse("gi+bogus"); ok {
		t.Error("Parse accepted bogus fix")
	}
	if _, ok := Parse("gi+gi"); ok {
		t.Error("Parse accepted duplicate fix")
	}
	if _, ok := ParseConfigName("fix-gi"); ok {
		t.Error("ParseConfigName accepted non-lattice name")
	}
}

// TestMinimalSets exercises the lattice walk directly, including
// non-monotone families where an ok set has ok supersets missing.
func TestMinimalSets(t *testing.T) {
	cases := []struct {
		name string
		ok   func(FixSet) bool
		want []FixSet
	}{
		{"monotone-single", func(f FixSet) bool { return f.Has(FixGC) }, []FixSet{FixGC}},
		{"two-singletons", func(f FixSet) bool { return f.Has(FixGI) || f.Has(FixOOW) },
			[]FixSet{FixGI, FixOOW}},
		{"pair-required", func(f FixSet) bool { return f.Has(FixGI | FixMD) }, []FixSet{FixGI | FixMD}},
		{"empty-family", func(f FixSet) bool { return false }, nil},
		{"all-ok", func(f FixSet) bool { return true }, []FixSet{0}},
		// Non-monotone: gc alone works, gi spoils it unless md also set.
		{"non-monotone", func(f FixSet) bool {
			return f.Has(FixGC) && (!f.Has(FixGI) || f.Has(FixMD))
		}, []FixSet{FixGC}},
	}
	for _, tc := range cases {
		got := minimalSets(tc.ok)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: minimalSets = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSmokeVerdicts is the end-to-end acceptance check: the smoke
// preset must attribute the Table 1 pinning pathology to the Scheduling
// Group Construction fix, the §3.1 make+R pathology to the Group
// Imbalance fix, and surface the min-load interaction anomaly.
func TestSmokeVerdicts(t *testing.T) {
	r, err := Run(smokeWithSeed())
	if err != nil {
		t.Fatal(err)
	}

	pin := r.Cell("bulldozer8", "nas-pin:lu", 1)
	if pin == nil {
		t.Fatalf("nas-pin cell missing:\n%s", r.FormatSummary())
	}
	if pin.BaselineViolations == 0 || pin.BaselineClasses["group-construction"] == 0 {
		t.Errorf("pinned baseline shows no group-construction episodes: %+v", pin)
	}
	if !reflect.DeepEqual(pin.MinimalFixSets, []string{"gc"}) {
		t.Errorf("pinned minimal fix sets = %v, want [gc]", pin.MinimalFixSets)
	}
	// The ROADMAP anomaly: adding the min-load fix to a clean gc set
	// re-introduces idle-while-overloaded time, classified as a
	// group-imbalance signature (the min-load metric masks the
	// imbalance when pinned-away nodes contain idle cores).
	foundAnomaly := false
	for _, in := range pin.Interactions {
		if in.Base == "gc" && in.Added == "gi" {
			foundAnomaly = true
			if in.Classes["group-imbalance"] == 0 {
				t.Errorf("anomaly edge has classes %v, want group-imbalance", in.Classes)
			}
			if in.CombinedIdleNs <= in.BaseIdleNs {
				t.Errorf("anomaly edge not a regression: %d -> %d", in.BaseIdleNs, in.CombinedIdleNs)
			}
		}
	}
	if !foundAnomaly {
		t.Errorf("min-load anomaly edge {gc}+gi missing: %+v", pin.Interactions)
	}

	mk := r.Cell("bulldozer8", "make2r", 1)
	if mk == nil {
		t.Fatal("make2r cell missing")
	}
	if mk.BaselineClasses["group-imbalance"] == 0 {
		t.Errorf("make2r baseline shows no group-imbalance episodes: %+v", mk.BaselineClasses)
	}
	if !containsSet(mk.MinimalFixSets, "gi") {
		t.Errorf("make2r minimal fix sets = %v, want gi included", mk.MinimalFixSets)
	}
}

// TestTPCHEpisodeWitness pins the ROADMAP item this axis exists for:
// TPC-H's overload-on-wakeup episodes are too short for checker
// confirmation at any lens that still filters legal transients, so the
// cell's baseline is episode-clean — yet the wakeup-placement streak
// and the p99 wakeup-delay witnesses both attribute it to {oow},
// giving Table 2 an episode-level verdict instead of a makespan-only
// one.
func TestTPCHEpisodeWitness(t *testing.T) {
	o := smokeWithSeed()
	o.Workloads = campaign.MustWorkloads("tpch")
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	cell := r.Cell("bulldozer8", "tpch", 1)
	if cell == nil {
		t.Fatalf("tpch cell missing:\n%s", r.FormatSummary())
	}
	if cell.BaselineViolations != 0 {
		t.Errorf("tpch baseline has %d confirmed episodes; the witness test assumes it is checker-clean",
			cell.BaselineViolations)
	}
	if cell.BaselineStreaks == 0 || cell.BaselineLongestStreak < r.StreakK {
		t.Fatalf("no streak witness: streaks=%d longest=%d (K=%d)",
			cell.BaselineStreaks, cell.BaselineLongestStreak, r.StreakK)
	}
	if !reflect.DeepEqual(cell.StreakMinimalFixSets, []string{"oow"}) {
		t.Errorf("streak minimal sets = %v, want [oow]", cell.StreakMinimalFixSets)
	}
	if !reflect.DeepEqual(cell.LatencyMinimalFixSets, []string{"oow"}) {
		t.Errorf("latency minimal sets = %v, want [oow]", cell.LatencyMinimalFixSets)
	}
	if cell.LatencyBestSet == "" {
		t.Error("latency verdict missing")
	}
	// The human-readable report surfaces both witnesses.
	sum := r.FormatSummary()
	for _, want := range []string{"wake streaks", "latency: best"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary misses %q:\n%s", want, sum)
		}
	}
	// Pre-latency artifacts (no digests, no streak stamps) must not
	// grow phantom verdicts: strip the new fields and re-analyze.
	stripped := *r.Campaign
	stripped.StreakK = 0
	stripped.Results = append([]campaign.Result(nil), r.Campaign.Results...)
	for i := range stripped.Results {
		stripped.Results[i].WakeLatency = nil
		stripped.Results[i].RunqWait = nil
		stripped.Results[i].WakeStreaks = nil
	}
	r2, err := Analyze(&stripped, o)
	if err != nil {
		t.Fatal(err)
	}
	cell2 := r2.Cell("bulldozer8", "tpch", 1)
	if cell2.BaselineStreaks != 0 || cell2.StreakMinimalFixSets != nil || cell2.LatencyBestSet != "" {
		t.Errorf("pre-latency artifact grew latency verdicts: %+v", cell2)
	}
}

func containsSet(sets []string, want string) bool {
	for _, s := range sets {
		if s == want {
			return true
		}
	}
	return false
}

// smokeWithSeed pins the smoke preset's base seed so tests and the CI
// artifact agree.
func smokeWithSeed() Options {
	o := SmokeOptions()
	o.BaseSeed = 42
	return o
}

// tinyOptions is a single-workload lattice (16 scenarios) for the
// property tests that re-run the sweep several times.
func tinyOptions() Options {
	o := smokeWithSeed()
	o.Workloads = campaign.MustWorkloads("make2r")
	return o
}

// TestReportDeterminism is the property test over the lattice artifact:
// byte-identical for workers 1, 4 and NumCPU, and for shuffled scenario
// order.
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
			t.Fatalf("bisect artifact differs across worker counts (run %d)", i)
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
		t.Fatal("bisect artifact depends on scenario order")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	o := tinyOptions()
	o.Workers = 4
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bisect.json")
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
	// schema (baseline comparisons reuse campaign.Compare).
	if loaded.Campaign == nil || loaded.Campaign.Version != campaign.Version {
		t.Fatal("embedded campaign artifact missing or mis-versioned")
	}
	cmp := campaign.Compare(loaded.Campaign, r.Campaign, 2)
	if !cmp.Clean() {
		t.Fatalf("self-comparison not clean:\n%s", campaign.FormatComparison(cmp))
	}
}

func TestAnalyzeErrors(t *testing.T) {
	// A campaign with no lattice configs at all.
	m := campaign.SmokeMatrix()
	c, err := campaign.Run(m, campaign.RunnerOpts{Workers: 4, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(c, Options{}); err == nil {
		t.Error("Analyze accepted a campaign without lattice results")
	}

	// A lattice with a hole.
	o := tinyOptions()
	r, err := campaign.Run(o.Matrix(), campaign.RunnerOpts{Workers: 4, BaseSeed: 42, Checker: o.Checker})
	if err != nil {
		t.Fatal(err)
	}
	var holed []campaign.Result
	for _, res := range r.Results {
		if res.Config != "fx-gc" {
			holed = append(holed, res)
		}
	}
	r.Results = holed
	if _, err := Analyze(r, o); err == nil {
		t.Error("Analyze accepted an incomplete lattice")
	}
}

func TestOptionsByName(t *testing.T) {
	for _, name := range []string{"smoke", "default", "full"} {
		o, ok := OptionsByName(name)
		if !ok || len(o.Topologies) == 0 || len(o.Workloads) == 0 {
			t.Errorf("preset %q broken", name)
		}
		if o.Matrix().Size()%NumSets != 0 {
			t.Errorf("preset %q matrix size %d not a lattice multiple", name, o.Matrix().Size())
		}
	}
	if _, ok := OptionsByName("bogus"); ok {
		t.Error("bogus preset resolved")
	}
}

// FuzzDecode feeds Decode, the reader of bisect's -baseline, -merge and
// -incremental inputs and of explain's -in, arbitrary bytes, seeded
// with the committed bisect baselines. It must not panic, and an
// accepted artifact must re-encode to bytes that decode and re-encode
// identically.
func FuzzDecode(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "baselines", "bisect-*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed bisect baselines (%v)", err)
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
