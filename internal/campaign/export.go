package campaign

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/checker"
	"repro/internal/latency"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TraceExport reports what ExportPerfetto captured.
type TraceExport struct {
	// Key is the exported scenario's key.
	Key string
	// Events is the number of trace events captured.
	Events int
	// Dropped is the recorder's lost-event count; non-zero means the
	// capture buffer filled and the timeline has gaps.
	Dropped uint64
}

// SelectExportScenario picks the scenario to export: the one matching
// key, or — when key is empty — the first in matrix order (matrix order
// leads with workloads that drive the machine engine, so the default
// export has a live timeline). An explicit key that matches nothing is
// an error listing the available keys.
func SelectExportScenario(scenarios []Scenario, key string) (Scenario, error) {
	if len(scenarios) == 0 {
		return Scenario{}, fmt.Errorf("campaign: no scenarios to export")
	}
	if key == "" {
		return scenarios[0], nil
	}
	keys := make([]string, 0, len(scenarios))
	for _, sc := range scenarios {
		if sc.Key() == key {
			return sc, nil
		}
		keys = append(keys, sc.Key())
	}
	sort.Strings(keys)
	return Scenario{}, fmt.Errorf("campaign: no scenario %q; available:\n  %s", key, joinLines(keys))
}

func joinLines(keys []string) string {
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += "\n  "
		}
		out += k
	}
	return out
}

// ExportPerfetto re-runs one scenario with a full-run trace capture and
// an attached metrics registry, and writes the merged Chrome
// trace-event / Perfetto JSON to w.
//
// This is deliberately a *side run*, separate from the campaign proper:
// always-on recording and metrics sampling change per-run event counts,
// so folding them into the campaign would make artifact bytes depend on
// an export flag. The side run derives the same engine seed from the
// same (BaseSeed, cell, seed) triple, so its timeline is the campaign
// scenario's timeline, not an approximation of it.
func ExportPerfetto(sc Scenario, opts RunnerOpts, w io.Writer) (TraceExport, error) {
	engineSeed := DeriveSeed(opts.BaseSeed, sc.CellKey(), sc.Seed)
	topo := sc.Topology.Build()
	m := machine.New(topo, sc.Config.Config, engineSeed)

	detach, err := sc.Config.Apply(m.Sched)
	if err != nil {
		return TraceExport{}, fmt.Errorf("campaign: %w", err)
	}
	defer detach()

	// Full-run capture: recorder active from t=0 with a large buffer
	// (the campaign's checker-windowed recorder only profiles around
	// violations — an export wants the whole timeline). With Explain on
	// it also keeps the decision kinds, so each balance and migration is
	// recorded and rendered once. EmitSnapshot seeds the initial
	// runqueue state so derived busy slices and counter tracks start
	// from truth rather than the first transition.
	kinds := trace.SchedKinds
	if opts.Explain {
		kinds |= trace.DecisionKinds
	}
	rec := trace.NewRecorderOf(1<<21, kinds)
	m.SetRecorder(rec)
	rec.Start()
	m.Sched.EmitSnapshot()

	reg := obs.NewRegistry(m.Eng, obs.Options{Cadence: opts.EffectiveMetricsCadence()})
	m.Sched.AttachObs(reg)
	m.AttachObs(reg)
	reg.Start()

	col := latency.NewCollector(latency.Config{StreakK: opts.EffectiveStreakK()})
	m.Sched.SetLatencyProbe(col)
	ck := checker.New(m.Sched, nil, opts.EffectiveChecker())
	ck.ObserveLatency(col)

	// With Explain on, the side run also records episode onset/detection
	// marks for the annotation tracks. Marks only, no counterfactual
	// replays: an export wants the timeline, not the report (the
	// campaign artifact carries that).
	var marks *episodeMarker
	if opts.Explain {
		marks = &episodeMarker{}
		ck.SetEpisodeHook(marks)
		col.SetStreakHook(marks.onStreak)
	}
	ck.Start()
	defer ck.Stop()

	sc.Workload.Run(&RunContext{
		M:       m,
		Topo:    topo,
		Seed:    engineSeed,
		Scale:   sc.Scale,
		Horizon: sc.Horizon,
	})

	exp := TraceExport{Key: sc.Key(), Events: rec.Len(), Dropped: rec.Dropped()}
	pfOpts := obs.PerfettoOpts{
		Cores:           topo.NumCores(),
		MaxSeriesPoints: 4096,
	}
	if marks != nil {
		pfOpts.Episodes = marks.marks
	}
	err = obs.WritePerfetto(w, rec.Events(), reg.Series(), pfOpts)
	return exp, err
}

// episodeMarker is the export-side checker.EpisodeHook: it keeps the
// onset/detection instants of confirmed episodes (and wakeup streaks)
// as Perfetto annotation marks, discarding transients.
type episodeMarker struct {
	marks []obs.EpisodeMark
	cand  *obs.EpisodeMark
}

func (e *episodeMarker) OnCandidate(detectedAt, onsetAt sim.Time, idle, busy topology.CoreID) {
	e.cand = &obs.EpisodeMark{
		OnsetNs:    int64(onsetAt),
		DetectedNs: int64(detectedAt),
		Kind:       "checker",
		IdleCPU:    int(idle),
		BusyCPU:    int(busy),
	}
}

func (e *episodeMarker) OnTransient() { e.cand = nil }

func (e *episodeMarker) OnConfirmed(checker.Violation) {
	if e.cand != nil {
		e.marks = append(e.marks, *e.cand)
		e.cand = nil
	}
}

func (e *episodeMarker) onStreak(start, at sim.Time) {
	e.marks = append(e.marks, obs.EpisodeMark{
		OnsetNs:    int64(start),
		DetectedNs: int64(at),
		Kind:       "streak",
		IdleCPU:    -1,
		BusyCPU:    -1,
	})
}
