// Package explain turns checker witnesses into causal explanations.
//
// The paper's tools stop at detection: the §4.1 sanity checker says *that*
// a core sat idle while another queued threads, and the §4.2 visualizer
// shows the decisions around it — but neither says which decision caused
// the episode or which fix would have removed it. This package closes the
// loop with counterfactual replay on mid-run forks (Machine.Fork, which
// copies the scheduler and the engine with it): when the checker opens a
// monitoring window, the whole world is forked at the detection instant;
// if the window confirms, the window is replayed in an unmodified
// control world and under each single fix of the paper's lattice (gi,
// gc, oow, md), and the per-episode report records which fixes erase
// the episode, how much wasted core time and p99 wakeup latency each
// saves, and — via the decision rings internal/sched records into — the
// first scheduling decision where the fixed world diverged from the
// control. A fix that provably cannot change the control's replay is
// not simulated; its replay is a copy of the control's (see FixReplay).
//
// Replays are driverless: a Machine.Fork carries every machine-owned
// event (compute timers, ticks, sleeps) but none of the workload driver's
// future arrivals, so every replay of an episode faces *identical*
// conditions — the comparison isolates the scheduler change. Everything
// runs in virtual time on forked engines, so reports are deterministic:
// byte-identical across worker counts and scenario order.
//
// Wakeup-streak episodes (internal/latency) get the same treatment.
// TPC-H's overload-on-wakeup episodes are too short for the checker to
// confirm; the streak hook fires when K consecutive wakeups land on busy
// cores despite idle capacity, and the replay asks whether each fix stops
// the streaking. This is what lets the per-episode attribution agree with
// the bisect minimal set ({oow}) on a cell the invariant checker is blind
// to.
package explain

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/checker"
	"repro/internal/latency"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Config tunes an Observer.
type Config struct {
	// Checker is the effective checker lens of the run: Window (M) and
	// Samples define the replay window and its invariant sampling
	// schedule, mirroring the confirmation the main world performed.
	Checker checker.Config
	// StreakK is the streak threshold replay collectors use (0 =
	// latency.DefaultStreakK).
	StreakK int
}

// DefaultMaxEpisodes caps replayed episodes per scenario, bounding its
// replay cost: each episode is at most 5 window replays (the control
// and one per fix whose replay is not a copy of it) and 5 forks (the
// episode world, and one per replay but the last, which runs on the
// episode world itself).
// Episodes beyond the cap are counted in SkippedEpisodes, never silently
// dropped.
const DefaultMaxEpisodes = 8

// Divergence names the first decision record where a fix replay's
// decision stream departed from the control replay's — the concrete
// decision the fix changed.
type Divergence struct {
	// Index is the position in the two (index-aligned) record streams.
	Index int `json:"index"`
	// Control / Fixed render the differing records (Fixed empty when the
	// fixed stream simply ended first, and vice versa).
	Control string `json:"control,omitempty"`
	Fixed   string `json:"fixed,omitempty"`
}

// Replay summarizes one world's trip through an episode window.
type Replay struct {
	// Persisted reports whether the episode survived the window in this
	// world: for checker episodes, the invariant violation held at every
	// sample (the checker's own confirmation rule); for streak episodes,
	// at least one new busy-while-idle streak completed.
	Persisted bool `json:"persisted"`
	// WastedNs is the idle-while-work-waiting core time accumulated
	// during the window (sched.WastedCoreTime delta).
	WastedNs int64 `json:"wasted_ns"`
	// P99WakeNs is the p99 wakeup-to-run delay of wakeups inside the
	// window (0 when none happened).
	P99WakeNs int64 `json:"p99_wake_ns,omitempty"`
	// BusyWakeups counts wakeups placed on busy cores during the window.
	BusyWakeups int64 `json:"busy_wakeups,omitempty"`
	// Streaks counts busy-while-idle wakeup streaks completed during the
	// window.
	Streaks int `json:"streaks,omitempty"`
	// Events is the number of engine events the window processed.
	Events uint64 `json:"events,omitempty"`
	// Decisions is the number of decision records the window produced.
	Decisions uint64 `json:"prov_records,omitempty"`
}

// FixReplay is a Replay under one enabled fix, with deltas against the
// control. A fix that cannot change a byte of the control's replay is
// not simulated: a fix already in the scenario's features, and a
// construction fix (gc, md) for which the divergence probe attached to
// the control replay never fired. Its Replay is a copy of the control's,
// with Erases false, zero deltas and a nil FirstDivergence — the values
// simulating it would give.
type FixReplay struct {
	// Fix is the lattice fix name ("gi", "gc", "oow", "md").
	Fix string `json:"fix"`
	Replay
	// Erases reports the counterfactual verdict: the episode persisted in
	// the control world and vanished under this fix.
	Erases bool `json:"erases"`
	// WastedDeltaNs / P99WakeDeltaNs are fix minus control (negative =
	// the fix saves that much).
	WastedDeltaNs  int64 `json:"wasted_delta_ns"`
	P99WakeDeltaNs int64 `json:"p99_wake_delta_ns"`
	// FirstDivergence is the first decision this fix changed, nil when
	// the decision streams were identical (the fix never acted).
	FirstDivergence *Divergence `json:"first_divergence,omitempty"`
}

// Episode is one replayed episode's full report.
type Episode struct {
	// Kind is "checker" (a confirmed §4.1 invariant violation) or
	// "streak" (a §3.3 busy-while-idle wakeup streak).
	Kind string `json:"kind"`
	// Class is the checker's bug-signature classification (checker
	// episodes only).
	Class string `json:"class,omitempty"`
	// OnsetNs is when the episode actually began (the idle witness
	// core's idle start, or the streak's first placement); DetectedNs is
	// when it was noticed — the fork instant (snapshots cannot reach
	// into the past, so replays start here and annotations anchor at
	// onset); ConfirmedNs is when the checker confirmed (checker
	// episodes only).
	OnsetNs     int64 `json:"onset_ns"`
	DetectedNs  int64 `json:"detected_ns"`
	ConfirmedNs int64 `json:"confirmed_ns,omitempty"`
	// IdleCPU / BusyCPU witness a checker episode (-1 for streaks).
	IdleCPU int `json:"idle_cpu"`
	BusyCPU int `json:"busy_cpu"`
	// WindowNs is the replay window length.
	WindowNs int64 `json:"window_ns"`
	// Control is the unmodified world's replay; Fixes are the four
	// single-fix counterfactuals in canonical lattice order.
	Control Replay      `json:"control"`
	Fixes   []FixReplay `json:"fixes"`
	// Attribution lists the single fixes that erase the episode.
	Attribution []string `json:"attribution,omitempty"`
}

// ScenarioExplain is the per-scenario explain report embedded in
// campaign artifacts (additive, omitempty).
type ScenarioExplain struct {
	Episodes []Episode `json:"episodes,omitempty"`
	// CheckerEpisodes / StreakEpisodes count episodes by kind.
	CheckerEpisodes int `json:"checker_episodes,omitempty"`
	StreakEpisodes  int `json:"streak_episodes,omitempty"`
	// SkippedEpisodes counts episodes past the DefaultMaxEpisodes cap;
	// ForkUnavailable counts episodes whose world could not be forked
	// (workloads with external completion hooks, attached policies).
	SkippedEpisodes int `json:"skipped_episodes,omitempty"`
	ForkUnavailable int `json:"fork_unavailable,omitempty"`
	// Decisions / DecisionsDropped are the main world's decision
	// counter totals for the whole scenario: the records a
	// trace.DefaultRingCap ring would have offered and overwritten.
	Decisions        uint64 `json:"prov_records,omitempty"`
	DecisionsDropped uint64 `json:"prov_dropped,omitempty"`
}

// Attributed reports whether any episode's attribution names fix.
func (s *ScenarioExplain) Attributed(fix string) bool {
	if s == nil {
		return false
	}
	for _, ep := range s.Episodes {
		for _, f := range ep.Attribution {
			if f == fix {
				return true
			}
		}
	}
	return false
}

// pending is a world forked at a checker candidate's detection instant,
// held until the monitoring window resolves.
type pending struct {
	world      *machine.Machine
	detectedAt sim.Time
	onsetAt    sim.Time
	idle, busy int
}

// Observer wires decision recording and counterfactual replay into one
// scenario's run. It implements checker.EpisodeHook; attach with
// Checker.SetEpisodeHook, and attach OnStreak with
// latency.Collector.SetStreakHook. The observer owns the scenario's
// decision counter and attaches it to the scheduler.
type Observer struct {
	m       *machine.Machine
	cfg     Config
	base    sched.Features
	counter *trace.Recorder

	// Replay scratch, reset before each replay: every replay of the
	// scenario's episodes shares one collector and two decision rings,
	// all recycled across scenarios (see Report), which allocate only to
	// outgrow the largest replay so far.
	replayCol *latency.Collector
	rings     *replayRings

	pend   *pending
	report ScenarioExplain
}

// replayRings are the control's and a fix's decision rings, compared by
// firstDivergence. ringPool recycles them across observers.
type replayRings struct{ control, fixed *trace.Recorder }

var ringPool = sync.Pool{New: func() any {
	r := &replayRings{
		control: trace.NewDecisionRing(trace.DefaultRingCap),
		fixed:   trace.NewDecisionRing(trace.DefaultRingCap),
	}
	r.control.Start()
	r.fixed.Start()
	return r
}}

// NewObserver creates an observer for m and attaches its decision
// counter to m's scheduler. The machine must not have started episodes
// yet (attach during scenario setup, before the workload runs).
func NewObserver(m *machine.Machine, cfg Config) *Observer {
	cfg.Checker = cfg.Checker.WithDefaults()
	o := &Observer{
		m:         m,
		cfg:       cfg,
		base:      m.Sched.Config().Features,
		counter:   trace.NewDecisionCounter(trace.DefaultRingCap),
		replayCol: latency.NewCollector(latency.Config{StreakK: cfg.StreakK}),
		rings:     ringPool.Get().(*replayRings),
	}
	o.counter.Start()
	m.Sched.SetRecorder(o.counter)
	return o
}

// fork deep-copies m, absorbing the panic Machine.Fork raises for worlds
// it cannot clone (queued Task.OnDone hooks, attached placement
// policies): those scenarios simply report ForkUnavailable instead of
// episodes. The fork carries none of m's observers.
func fork(m *machine.Machine) (m2 *machine.Machine) {
	defer func() {
		if recover() != nil {
			m2 = nil
		}
	}()
	return m.Fork()
}

func (o *Observer) capped() bool {
	return len(o.report.Episodes)+o.report.SkippedEpisodes >= DefaultMaxEpisodes
}

// OnCandidate implements checker.EpisodeHook: fork the world at the
// detection instant, before any monitoring-window event exists.
func (o *Observer) OnCandidate(detectedAt, onsetAt sim.Time, idle, busy topology.CoreID) {
	if o.pend != nil {
		return // overlapping windows cannot happen; defensive
	}
	if o.capped() {
		return // counted at confirmation, if it confirms
	}
	w := fork(o.m)
	if w == nil {
		return // counted at confirmation
	}
	o.pend = &pending{world: w, detectedAt: detectedAt, onsetAt: onsetAt,
		idle: int(idle), busy: int(busy)}
}

// OnTransient implements checker.EpisodeHook: the candidate resolved
// legally; drop the fork.
func (o *Observer) OnTransient() { o.pend = nil }

// OnConfirmed implements checker.EpisodeHook: replay the confirmed
// episode's window under control + each single fix.
func (o *Observer) OnConfirmed(v checker.Violation) {
	p := o.pend
	o.pend = nil
	if p == nil {
		if o.capped() {
			o.report.SkippedEpisodes++
		} else {
			o.report.ForkUnavailable++
		}
		return
	}
	ep := o.replayEpisode(episodeSpec{
		kind:      "checker",
		world:     p.world,
		from:      p.detectedAt,
		onset:     p.onsetAt,
		detected:  p.detectedAt,
		confirmed: v.ConfirmedAt,
		idle:      p.idle,
		busy:      p.busy,
		class:     string(v.Class),
		persistFn: persistChecker,
	})
	o.report.Episodes = append(o.report.Episodes, ep)
	o.report.CheckerEpisodes++
}

// OnStreak is the latency.Collector streak hook. It fires mid-wakeup,
// so the fork is deferred to the next clean event boundary; the replay
// runs there.
func (o *Observer) OnStreak(start, at sim.Time) {
	if o.capped() {
		o.report.SkippedEpisodes++
		return
	}
	o.m.Eng.After(0, func() {
		if o.capped() {
			o.report.SkippedEpisodes++
			return
		}
		w := fork(o.m)
		if w == nil {
			o.report.ForkUnavailable++
			return
		}
		ep := o.replayEpisode(episodeSpec{
			kind:      "streak",
			world:     w,
			from:      o.m.Eng.Now(),
			onset:     start,
			detected:  at,
			idle:      -1,
			busy:      -1,
			persistFn: persistStreak,
		})
		o.report.Episodes = append(o.report.Episodes, ep)
		o.report.StreakEpisodes++
	})
}

// Report finalizes and returns the scenario's explain report, and hands
// the replay scratch on to the next observer. Call it once, when the
// workload has finished: the observer replays nothing after it.
func (o *Observer) Report() *ScenarioExplain {
	o.pend = nil
	o.report.Decisions = o.counter.Total()
	o.report.DecisionsDropped = o.counter.Dropped()
	o.replayCol.Release()
	ringPool.Put(o.rings) // runReplay resets a ring before each use
	o.replayCol, o.rings = nil, nil
	r := o.report
	return &r
}

// episodeSpec carries one episode through replayEpisode.
type episodeSpec struct {
	kind                       string
	world                      *machine.Machine
	from                       sim.Time
	onset, detected, confirmed sim.Time
	idle, busy                 int
	class                      string
	persistFn                  func(persisted bool, col *latency.Collector) bool
}

// persistChecker: the checker's own rule — the invariant violation held
// at every window sample.
func persistChecker(sampled bool, _ *latency.Collector) bool { return sampled }

// persistStreak: a new busy-while-idle streak completed during the
// window (the replay collector starts fresh, so any streak is new).
func persistStreak(_ bool, col *latency.Collector) bool { return col.StreakCount() > 0 }

// Test switches. replayEveryFix makes replayEpisode simulate every fix
// replay, the reference path its copies must equal; fixReplayed, when
// set, is told how each fix replay was produced. Tests set them; nothing
// else does.
var (
	replayEveryFix bool
	fixReplayed    func(fix, how string)
)

// replayEpisode runs the window in the control world (the scenario's own
// features) first, then once per single fix merged onto them, in
// canonical lattice order — except where the fix cannot change a byte
// of the control's replay, which it then copies (see FixReplay):
//
//   - a fix already in the scenario's features, whose world is the
//     control's;
//   - a construction fix (gc, md) whose divergence probe, attached to
//     the control, never fired. Both flags are read only in domain
//     construction, and the probe compares the whole hierarchy at attach
//     and after every rebuild, so a flag it never fires leaves every
//     hierarchy, decision and record of the control unchanged.
//
// The probe does not watch gi or oow: it would prove their decisions
// equal, but their records still differ (a balance record's metric
// follows gi, a wakeup record's path follows oow), and a FixReplay's
// FirstDivergence compares whole records.
func (o *Observer) replayEpisode(spec episodeSpec) Episode {
	window := o.cfg.Checker.M
	ep := Episode{
		Kind:        spec.kind,
		Class:       spec.class,
		OnsetNs:     int64(spec.onset),
		DetectedNs:  int64(spec.detected),
		ConfirmedNs: int64(spec.confirmed),
		IdleCPU:     spec.idle,
		BusyCPU:     spec.busy,
		WindowNs:    int64(window),
	}

	// Only the episode's last simulated replay runs on the episode world
	// itself. The control is the last only when the scenario already has
	// every fix; otherwise a fix replay may follow it.
	controlLast := !replayEveryFix && o.base == sched.AllFixes
	const construction = sched.FixGroupConstruction | sched.FixMissingDomains
	probe := &sched.DivergenceProbe{Armed: construction &^ o.base}
	control := o.runReplay(spec, controlLast, o.base, o.rings.control, probe)
	ep.Control = control
	// copied holds the fixes whose replay is the control's.
	copied := o.base | construction&^probe.Fired
	simulated := func(fix sched.Features) bool {
		return replayEveryFix || !copied.Has(fix)
	}
	var last sched.Features // the last simulated fix, 0 if none
	for _, fix := range sched.Fixes {
		if simulated(fix) {
			last = fix
		}
	}

	for _, fix := range sched.Fixes {
		name := fix.String()
		if !simulated(fix) {
			if fixReplayed != nil {
				how := "cleared"
				if o.base.Has(fix) {
					how = "in-base"
				}
				fixReplayed(name, how)
			}
			ep.Fixes = append(ep.Fixes, FixReplay{Fix: name, Replay: control})
			continue
		}
		if fixReplayed != nil {
			fixReplayed(name, "simulated")
		}
		rep := o.runReplay(spec, fix == last, o.base|fix, o.rings.fixed, nil)
		fr := FixReplay{
			Fix:            name,
			Replay:         rep,
			Erases:         control.Persisted && !rep.Persisted,
			WastedDeltaNs:  rep.WastedNs - control.WastedNs,
			P99WakeDeltaNs: rep.P99WakeNs - control.P99WakeNs,
		}
		if fr.Erases {
			ep.Attribution = append(ep.Attribution, name)
		}
		fr.FirstDivergence = firstDivergence(o.rings.control.Events(), o.rings.fixed.Events())
		ep.Fixes = append(ep.Fixes, fr)
	}
	return ep
}

// runReplay forks the episode world, or takes the world itself for the
// episode's last replay (last), after which nothing reads it. It
// applies feats, attaches probe (nil attaches none), and advances the
// world through the window with the checker's own sampling schedule, on
// the observer's reset replay scratch. ring is reset and then holds the
// window's decision records.
func (o *Observer) runReplay(spec episodeSpec, last bool, feats sched.Features, ring *trace.Recorder, probe *sched.DivergenceProbe) Replay {
	ring.Reset()
	w := spec.world
	if !last {
		w = fork(w)
	}
	if w == nil {
		return Replay{} // second-level fork cannot realistically fail; stay safe
	}
	w.Sched.ApplyFeatures(feats)
	w.Sched.SetDivergenceProbe(probe)
	col := o.replayCol
	col.Reset()
	w.Sched.SetRecorder(ring)
	w.Sched.SetLatencyProbe(col)

	startWasted := w.Sched.WastedCoreTime()
	startCounters := w.Sched.Counters()
	startEvents := w.Eng.Processed()

	samples := o.cfg.Checker.Samples
	step := o.cfg.Checker.M / sim.Time(samples)
	sampled := true
	for k := 1; k <= samples; k++ {
		w.Eng.RunUntil(spec.from + step*sim.Time(k))
		if _, _, found := checker.FindViolation(w.Sched); !found {
			sampled = false
		}
	}

	counters := w.Sched.Counters()
	rep := Replay{
		WastedNs:    int64(w.Sched.WastedCoreTime() - startWasted),
		BusyWakeups: int64(counters.WakeupsOnBusy - startCounters.WakeupsOnBusy),
		Streaks:     col.StreakCount(),
		Events:      w.Eng.Processed() - startEvents,
		Decisions:   ring.Total(),
	}
	if d := col.WakeDigest(); d != nil {
		rep.P99WakeNs = d.P99Ns
	}
	rep.Persisted = spec.persistFn(sampled, col)
	return rep
}

// firstDivergence finds the first index where two decision streams
// differ, nil when identical (including both empty).
func firstDivergence(control, fixed []trace.Event) *Divergence {
	n := len(control)
	if len(fixed) < n {
		n = len(fixed)
	}
	for i := 0; i < n; i++ {
		if control[i] != fixed[i] {
			return &Divergence{Index: i, Control: control[i].String(), Fixed: fixed[i].String()}
		}
	}
	if len(control) != len(fixed) {
		d := &Divergence{Index: n}
		if n < len(control) {
			d.Control = control[n].String()
		}
		if n < len(fixed) {
			d.Fixed = fixed[n].String()
		}
		return d
	}
	return nil
}

// WriteEpisode renders one episode for humans (cmd/explain).
func WriteEpisode(w io.Writer, i int, ep Episode) {
	fmt.Fprintf(w, "episode %d [%s", i+1, ep.Kind)
	if ep.Class != "" {
		fmt.Fprintf(w, " class=%s", ep.Class)
	}
	fmt.Fprintf(w, "] onset=%v detected=%v", sim.Time(ep.OnsetNs), sim.Time(ep.DetectedNs))
	if ep.ConfirmedNs != 0 {
		fmt.Fprintf(w, " confirmed=%v", sim.Time(ep.ConfirmedNs))
	}
	if ep.IdleCPU >= 0 {
		fmt.Fprintf(w, " cpu%d-idle-while-cpu%d-overloaded", ep.IdleCPU, ep.BusyCPU)
	}
	fmt.Fprintf(w, "\n  control: persisted=%v wasted=%v p99-wake=%v busy-wakeups=%d\n",
		ep.Control.Persisted, sim.Time(ep.Control.WastedNs), sim.Time(ep.Control.P99WakeNs),
		ep.Control.BusyWakeups)
	for _, f := range ep.Fixes {
		verdict := "no effect"
		if f.Erases {
			verdict = "ERASES the episode"
		} else if f.FirstDivergence != nil {
			verdict = "diverges, episode survives"
		}
		fmt.Fprintf(w, "  fix %-4s %s: wasted %+v, p99-wake %+v\n",
			f.Fix, verdict, sim.Time(f.WastedDeltaNs), sim.Time(f.P99WakeDeltaNs))
		if f.FirstDivergence != nil {
			fmt.Fprintf(w, "           first divergence @%d: %s\n", f.FirstDivergence.Index,
				divergenceLine(f.FirstDivergence))
		}
	}
	if len(ep.Attribution) > 0 {
		fmt.Fprintf(w, "  attribution: %v\n", ep.Attribution)
	} else {
		fmt.Fprintf(w, "  attribution: none (no single fix erases this episode)\n")
	}
}

func divergenceLine(d *Divergence) string {
	switch {
	case d.Control != "" && d.Fixed != "":
		return fmt.Sprintf("control %q vs fixed %q", d.Control, d.Fixed)
	case d.Control != "":
		return fmt.Sprintf("control %q vs fixed stream end", d.Control)
	default:
		return fmt.Sprintf("control stream end vs fixed %q", d.Fixed)
	}
}
