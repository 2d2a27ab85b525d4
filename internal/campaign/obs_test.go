package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/explain"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestMetricsCampaignDeterministic: with the metrics registry enabled,
// campaign artifacts must stay byte-identical across worker counts and
// must embed a metrics snapshot per scenario. Metrics-on is a distinct
// configuration (the sampling timer adds engine events), but it has to
// be just as deterministic as metrics-off.
func TestMetricsCampaignDeterministic(t *testing.T) {
	m := SmokeMatrix()
	opts := RunnerOpts{Workers: 1, BaseSeed: 42, Metrics: true}
	var artifacts [][]byte
	for _, workers := range []int{1, runtime.NumCPU()} {
		opts.Workers = workers
		c, err := Run(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, data)
		if !c.Metrics || c.MetricsCadenceNs != int64(obs.DefaultCadence) {
			t.Fatalf("metrics settings not stamped: metrics=%v cadence=%d", c.Metrics, c.MetricsCadenceNs)
		}
		for _, r := range c.Results {
			if r.Metrics == nil {
				t.Fatalf("scenario %s: no metrics snapshot", r.Key)
			}
			if len(r.Metrics.Series) == 0 {
				t.Fatalf("scenario %s: empty snapshot %+v", r.Key, r.Metrics)
			}
			// Workloads that never drive the machine engine (globalq runs
			// its own inner simulations) legitimately sample zero rounds.
			if r.Events > 0 && r.Metrics.Rounds == 0 {
				t.Fatalf("scenario %s: %d engine events but zero sampling rounds", r.Key, r.Events)
			}
			names := map[string]bool{}
			for _, s := range r.Metrics.Series {
				names[s.Name] = true
			}
			for _, want := range []string{"sched/runq", "sched/idle_cores", "sched/migrations", "sim/events", "machine/threads_alive"} {
				if !names[want] {
					t.Fatalf("scenario %s: missing series %q in %v", r.Key, want, names)
				}
			}
		}
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		t.Fatalf("metrics-enabled artifacts differ between workers=1 and workers=%d", runtime.NumCPU())
	}
}

// TestMetricsOffLeavesArtifactUntouched: the default configuration must
// serialize without any metrics fields so committed baselines stay
// byte-identical.
func TestMetricsOffLeavesArtifactUntouched(t *testing.T) {
	m := SmokeMatrix()
	c, err := Run(m, RunnerOpts{Workers: 1, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"metrics"`, `"metrics_cadence_ns"`, `"trace_dropped"`} {
		if bytes.Contains(data, []byte(frag)) {
			t.Fatalf("metrics-off artifact contains %s", frag)
		}
	}
}

// TestExplainUnchangedByTraceAndMetrics: a fork carries none of the
// main world's observers, so explain forks and replays the same episodes
// whether or not a trace recorder or a metrics registry is attached too:
// every scenario's Result.Explain equals the Explain-alone run's, and no
// episode is lost to fork_unavailable.
func TestExplainUnchangedByTraceAndMetrics(t *testing.T) {
	explainOf := func(opts RunnerOpts) map[string]*explain.ScenarioExplain {
		c, err := Run(SmokeMatrix(), opts)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]*explain.ScenarioExplain{}
		for _, r := range c.Results {
			out[r.Key] = r.Explain
		}
		return out
	}
	opts := RunnerOpts{Workers: 1, BaseSeed: 42, Explain: true}
	want := explainOf(opts)
	episodes := 0
	for key, ex := range want {
		if ex.ForkUnavailable != 0 {
			t.Fatalf("%s: %d episodes fork_unavailable with Explain alone", key, ex.ForkUnavailable)
		}
		episodes += len(ex.Episodes)
	}
	if episodes == 0 {
		t.Fatal("the smoke matrix replayed no episodes; the comparison would be vacuous")
	}
	for _, extra := range []struct {
		name string
		opts RunnerOpts
	}{
		{"trace", RunnerOpts{Workers: 1, BaseSeed: 42, Explain: true, Trace: true}},
		{"metrics", RunnerOpts{Workers: 1, BaseSeed: 42, Explain: true, Metrics: true}},
	} {
		if got := explainOf(extra.opts); !reflect.DeepEqual(got, want) {
			for key := range want {
				if !reflect.DeepEqual(got[key], want[key]) {
					t.Errorf("Explain+%s: %s explain = %+v, want %+v", extra.name, key, got[key], want[key])
				}
			}
		}
	}
}

// TestRecorderFanOut: the scheduler offers each record to every
// attached recorder, and each keeps only its own kinds. A §4.2 recorder
// and a decision ring attached together to one smoke scenario must each
// hold exactly their kind set's records, and the ring must hold the
// records of a run with the ring alone.
func TestRecorderFanOut(t *testing.T) {
	sc := SmokeMatrix().Scenarios()[0]
	run := func(recs ...*trace.Recorder) {
		seed := DeriveSeed(42, sc.CellKey(), sc.Seed)
		topo := sc.Topology.Build()
		m := machine.New(topo, sc.Config.Config, seed)
		detach, err := sc.Config.Apply(m.Sched)
		if err != nil {
			t.Fatal(err)
		}
		defer detach()
		for _, r := range recs {
			r.Start()
			m.SetRecorder(r)
		}
		sc.Workload.Run(&RunContext{M: m, Topo: topo, Seed: seed, Scale: sc.Scale, Horizon: sc.Horizon})
	}
	sched := trace.NewRecorder(1 << 22)
	ring := trace.NewDecisionRing(1 << 22)
	run(sched, ring)
	alone := trace.NewDecisionRing(1 << 22)
	run(alone)

	for _, c := range []struct {
		name  string
		r     *trace.Recorder
		kinds []trace.Kind
	}{
		{"§4.2 recorder", sched, []trace.Kind{trace.KindRQSize, trace.KindRQLoad, trace.KindConsidered,
			trace.KindMigration, trace.KindFork, trace.KindExit, trace.KindBalance}},
		{"decision ring", ring, []trace.Kind{trace.KindBalance, trace.KindStealReject, trace.KindWakeup, trace.KindMigration}},
	} {
		if c.r.Dropped() != 0 {
			t.Fatalf("%s dropped %d records", c.name, c.r.Dropped())
		}
		counts := map[trace.Kind]int{}
		for _, ev := range c.r.Events() {
			counts[ev.Kind]++
		}
		for _, k := range c.kinds {
			if counts[k] == 0 {
				t.Errorf("%s holds no %s records", c.name, k)
			}
			delete(counts, k)
		}
		if len(counts) != 0 {
			t.Errorf("%s holds records of other kinds: %v", c.name, counts)
		}
	}
	if got, want := ring.Events(), alone.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decision ring beside a §4.2 recorder holds %d records, %d alone, or they differ", len(got), len(want))
	}
}

// TestSelectExportScenario covers default selection, explicit keys, and
// the error path listing valid keys.
func TestSelectExportScenario(t *testing.T) {
	scenarios := SmokeMatrix().Scenarios()
	sc, err := SelectExportScenario(scenarios, "")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Key() != scenarios[0].Key() {
		t.Fatalf("default pick %q, want first in matrix order %q", sc.Key(), scenarios[0].Key())
	}
	want := scenarios[len(scenarios)-1].Key()
	sc, err = SelectExportScenario(scenarios, want)
	if err != nil || sc.Key() != want {
		t.Fatalf("explicit key: got %q, %v", sc.Key(), err)
	}
	if _, err := SelectExportScenario(scenarios, "nope"); err == nil {
		t.Fatal("bad key accepted")
	} else if !strings.Contains(err.Error(), scenarios[0].Key()) {
		t.Fatalf("error does not list valid keys: %v", err)
	}
}

// TestExportPerfettoSmoke runs the export side-path on a smoke scenario
// and validates the emitted JSON: parseable, per-CPU tracks present, and
// runqueue-depth counters included.
func TestExportPerfettoSmoke(t *testing.T) {
	scenarios := SmokeMatrix().Scenarios()
	sc, err := SelectExportScenario(scenarios, "")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	exp, err := ExportPerfetto(sc, RunnerOpts{BaseSeed: 42}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Key != sc.Key() {
		t.Fatalf("export key %q, want %q", exp.Key, sc.Key())
	}
	if exp.Events == 0 {
		t.Fatal("export captured no trace events")
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ns" || len(f.TraceEvents) == 0 {
		t.Fatalf("degenerate export: unit=%q events=%d", f.DisplayTimeUnit, len(f.TraceEvents))
	}
	var sawBusy, sawDepth, sawMetric bool
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Name == "busy":
			sawBusy = true
		case ev.Ph == "C" && strings.HasPrefix(ev.Name, "runq depth"):
			sawDepth = true
		case ev.Ph == "C" && strings.HasPrefix(ev.Name, "sched/"):
			sawMetric = true
		}
	}
	if !sawBusy || !sawDepth || !sawMetric {
		t.Fatalf("missing tracks: busy=%v depth=%v metric=%v", sawBusy, sawDepth, sawMetric)
	}

	// Same scenario, same seed: the export itself must be deterministic.
	var buf2 bytes.Buffer
	if _, err := ExportPerfetto(sc, RunnerOpts{BaseSeed: 42}, &buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("perfetto export is not deterministic across runs")
	}
}
