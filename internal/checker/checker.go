// Package checker implements the paper's first tool (§4.1): an online
// sanity checker that periodically verifies the work-conserving invariant
// — "no core remains idle while another core is overloaded" (Algorithm 2)
// — while tolerating the short-term violations that are a normal part of
// scheduling.
//
// The checker fires every S (default 1s of virtual time). When it finds an
// idle core alongside a core with waiting threads that could legally be
// stolen (can_steal respects tasksets), it does not flag immediately:
// it monitors the system for M (default 100ms, chosen because "the load
// balancer runs every 4ms, but ... multiple load balancing attempts might
// be needed to recover"), tracking thread migrations, creations and
// destructions. Only when the violation persists through the whole window
// is a bug flagged, at which point profiling (the trace recorder) is
// switched on for a short window, mirroring the paper's use of systemtap
// for 20ms after detection.
package checker

import (
	"fmt"
	"io"

	"repro/internal/latency"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/viz"
)

// Config tunes the checker. Zero fields take the paper's defaults.
type Config struct {
	// S is the invariant check interval (paper: 1s).
	S sim.Time
	// M is the monitoring window after a candidate violation (paper:
	// 100ms, "to virtually eliminate the probability of false
	// positives").
	M sim.Time
	// Samples is the number of invariant re-checks spread across M; the
	// violation must hold at every sample to be flagged.
	Samples int
	// ProfileWindow is how long profiling stays enabled after a flag
	// (paper: 20ms of systemtap).
	ProfileWindow sim.Time
}

// WithDefaults returns c with every zero field set to the paper's
// default. Layers that replay the checker's rule (internal/explain) use
// it so their windows and sampling match the checker's exactly.
func (c Config) WithDefaults() Config {
	if c.S == 0 {
		c.S = sim.Second
	}
	if c.M == 0 {
		c.M = 100 * sim.Millisecond
	}
	if c.Samples == 0 {
		c.Samples = 4
	}
	if c.ProfileWindow == 0 {
		c.ProfileWindow = 20 * sim.Millisecond
	}
	return c
}

// Violation is a confirmed long-term invariant violation — a bug report.
type Violation struct {
	// DetectedAt is when the candidate violation was first seen;
	// ConfirmedAt is when the monitoring window ended with the violation
	// still present.
	DetectedAt  sim.Time
	ConfirmedAt sim.Time
	// OnsetAt is when the episode actually began: the instant the idle
	// witness core went idle (it had been sitting idle for
	// DetectedAt-OnsetAt before the periodic check noticed). Equal to
	// DetectedAt when the idle core's history is unavailable. Additive:
	// zero in artifacts written before this field existed.
	OnsetAt sim.Time `json:",omitempty"`
	// IdleCPU / OverloadedCPU witness the violation at confirmation.
	IdleCPU       topology.CoreID
	OverloadedCPU topology.CoreID
	// NrRunning snapshots every core's runqueue occupancy at
	// confirmation.
	NrRunning []int
	// MigrationsDuring counts thread migrations observed during the
	// monitoring window (the "thread operations" Algorithm 2 tracks:
	// these are the events that could have fixed the violation).
	MigrationsDuring uint64
	// ForksDuring likewise.
	ForksDuring uint64
	// WakeupsOnBusyDuring counts wakeups placed on busy cores during the
	// monitoring window — the §3.3 symptom feeding the classification.
	WakeupsOnBusyDuring uint64
	// WakeStreaksDuring counts wakeup-placement streaks (see
	// internal/latency) completed during the monitoring window — the
	// episode-level §3.3 witness, populated when a latency collector is
	// observed (ObserveLatency).
	WakeStreaksDuring int
	// Class is the bug signature this episode matches (see Classify).
	Class Class
}

// String renders a one-line bug report.
func (v Violation) String() string {
	return fmt.Sprintf("invariant violated from %v to %v: cpu %d idle while cpu %d overloaded (class %s, migrations during window: %d)",
		v.DetectedAt, v.ConfirmedAt, v.IdleCPU, v.OverloadedCPU, v.Class, v.MigrationsDuring)
}

// Checker watches a scheduler for work-conservation violations.
type Checker struct {
	s   *sched.Scheduler
	eng *sim.Engine
	cfg Config
	rec *trace.Recorder
	lat *latency.Collector

	checks     uint64
	candidates uint64
	transients uint64
	violations []Violation
	monitoring bool
	stopped    bool

	hook EpisodeHook // episode lifecycle observer (nil = disabled)

	tm *sim.Timer // the periodic check, re-armed in place
}

// EpisodeHook observes the checker's episode lifecycle. OnCandidate
// fires when a candidate violation opens a monitoring window — before
// any window sample event is scheduled, so the engine is at a clean
// boundary and the hook may snapshot/fork the world (this is the
// explain layer's fork instant). Exactly one of OnTransient or
// OnConfirmed follows each OnCandidate.
type EpisodeHook interface {
	OnCandidate(detectedAt, onsetAt sim.Time, idle, busy topology.CoreID)
	OnTransient()
	OnConfirmed(v Violation)
}

// SetEpisodeHook installs (or clears, with nil) the episode observer.
func (c *Checker) SetEpisodeHook(h EpisodeHook) { c.hook = h }

// New creates a checker over s. rec may be nil; when present it is
// activated for ProfileWindow after each confirmed violation.
func New(s *sched.Scheduler, rec *trace.Recorder, cfg Config) *Checker {
	c := &Checker{s: s, eng: s.Engine(), cfg: cfg.WithDefaults(), rec: rec}
	c.tm = c.eng.NewTimer(c.periodic)
	return c
}

// ObserveLatency attaches a latency collector so confirmed violations
// carry the wakeup-streak witness of their monitoring window, and
// WriteReport can include the streak evidence alongside the invariant
// one. The collector is typically the same one installed as the
// scheduler's latency probe.
func (c *Checker) ObserveLatency(col *latency.Collector) { c.lat = col }

// Start begins periodic checking.
func (c *Checker) Start() {
	c.tm.ResetAfter(c.cfg.S)
}

// Stop halts future checks.
func (c *Checker) Stop() { c.stopped = true }

// Checks reports how many invariant evaluations have run.
func (c *Checker) Checks() uint64 { return c.checks }

// Candidates reports how many checks found a candidate violation.
func (c *Checker) Candidates() uint64 { return c.candidates }

// Transients reports candidates that resolved within the monitoring
// window (legal short-term violations).
func (c *Checker) Transients() uint64 { return c.transients }

// Violations returns the confirmed bug reports.
func (c *Checker) Violations() []Violation { return c.violations }

func (c *Checker) periodic() {
	if c.stopped {
		return
	}
	c.checks++
	if !c.monitoring {
		if idle, busy, found := FindViolation(c.s); found {
			c.candidates++
			c.beginMonitoring(idle, busy)
		}
	}
	c.tm.ResetAfter(c.cfg.S)
}

// FindViolation implements Algorithm 2 over s: an idle CPU1 plus a CPU2
// with nr_running >= 2 from which CPU1 could steal. It is the
// confirmation rule itself, exported so counterfactual replays
// (internal/explain) judge persistence exactly as the checker does.
//
// It runs at every check and every monitoring sample, so it walks the
// online set in ascending core order without allocating.
func FindViolation(s *sched.Scheduler) (idle, busy topology.CoreID, found bool) {
	online, n := s.OnlineSet(), topology.CoreID(s.Topology().NumCores())
	for cpu1 := range n {
		if !online.Has(cpu1) || s.NrRunning(cpu1) >= 1 {
			continue // CPU1 is offline or not idle
		}
		for cpu2 := range n {
			if cpu2 == cpu1 || !online.Has(cpu2) {
				continue
			}
			if s.NrRunning(cpu2) >= 2 && s.CanSteal(cpu1, cpu2) {
				return cpu1, cpu2, true
			}
		}
	}
	return 0, 0, false
}

// beginMonitoring samples the invariant across the window M; the
// violation is flagged only if every sample still shows it ("check for
// conditions that are acceptable for a short period of time, but
// unacceptable if they persist").
func (c *Checker) beginMonitoring(idle, busy topology.CoreID) {
	detectedAt := c.eng.Now()
	onsetAt := c.onsetOf(idle, detectedAt)
	if c.hook != nil {
		// Before monitoring state or any sample event exists: the hook may
		// fork the world here and the clone carries no checker artifacts.
		c.hook.OnCandidate(detectedAt, onsetAt, idle, busy)
	}
	c.monitoring = true
	startCounters := c.s.Counters()
	startStreaks := c.streakCount()
	step := c.cfg.M / sim.Time(c.cfg.Samples)
	var sample func(n int)
	sample = func(n int) {
		i, b, found := FindViolation(c.s)
		if !found {
			c.transients++
			c.monitoring = false
			if c.hook != nil {
				c.hook.OnTransient()
			}
			return
		}
		if n >= c.cfg.Samples {
			c.flag(detectedAt, onsetAt, i, b, startCounters, startStreaks)
			c.monitoring = false
			return
		}
		c.eng.After(step, func() { sample(n + 1) })
	}
	c.eng.After(step, func() { sample(1) })
}

// onsetOf anchors an episode's start at the instant the idle witness
// core went idle, falling back to the detection instant when the core
// is no longer idle (it can pick up work between FindViolation and the
// hook in pathological orderings).
func (c *Checker) onsetOf(idle topology.CoreID, detectedAt sim.Time) sim.Time {
	if c.s.IsIdle(idle) {
		if since := c.s.IdleSince(idle); since <= detectedAt {
			return since
		}
	}
	return detectedAt
}

// streakCount reads the observed collector's streak tally (0 without
// one).
func (c *Checker) streakCount() int {
	if c.lat == nil {
		return 0
	}
	return c.lat.StreakCount()
}

func (c *Checker) flag(detectedAt, onsetAt sim.Time, idle, busy topology.CoreID, start sched.Counters, startStreaks int) {
	nowCounters := c.s.Counters()
	wakeupsOnBusy := nowCounters.WakeupsOnBusy - start.WakeupsOnBusy
	// The episode classification mirrors the balancer's group metric, which
	// reads the group-imbalance flag: when the divergence probe watches that
	// flag, a classification the flipped metric would change is observable
	// divergence even if no balancing decision ever differed.
	if p := c.s.Probe(); p.Watching(sched.FixGroupImbalance) {
		gi := c.s.Config().Features.Has(sched.FixGroupImbalance)
		if classifyWith(c.s, idle, busy, wakeupsOnBusy, gi) != classifyWith(c.s, idle, busy, wakeupsOnBusy, !gi) {
			p.Fired |= sched.FixGroupImbalance
		}
	}
	v := Violation{
		DetectedAt:          detectedAt,
		OnsetAt:             onsetAt,
		ConfirmedAt:         c.eng.Now(),
		IdleCPU:             idle,
		OverloadedCPU:       busy,
		MigrationsDuring:    nowCounters.Migrations - start.Migrations,
		ForksDuring:         nowCounters.Forks - start.Forks,
		WakeupsOnBusyDuring: wakeupsOnBusy,
		WakeStreaksDuring:   c.streakCount() - startStreaks,
		Class:               Classify(c.s, idle, busy, wakeupsOnBusy),
	}
	online := c.s.OnlineSet()
	v.NrRunning = make([]int, 0, online.Count())
	online.ForEach(func(cpu topology.CoreID) {
		v.NrRunning = append(v.NrRunning, c.s.NrRunning(cpu))
	})
	c.violations = append(c.violations, v)
	if c.hook != nil {
		c.hook.OnConfirmed(v)
	}
	// Begin profiling, as the paper does with systemtap for 20ms.
	if c.rec != nil && !c.rec.Active() {
		c.rec.Start()
		c.s.EmitSnapshot()
		c.eng.After(c.cfg.ProfileWindow, c.rec.Stop)
	}
}

// WriteReport emits the offline bug report (§4.1: "the sanity checker
// begins gathering profiling information to include in the bug report"):
// the confirmed violations, runqueue snapshots, and — when a recorder was
// attached — the balance-decision profile with an automatic Group
// Imbalance diagnosis.
func (c *Checker) WriteReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "sanity checker report: %d checks, %d candidates, %d transients, %d confirmed violations\n",
		c.checks, c.candidates, c.transients, len(c.violations)); err != nil {
		return err
	}
	if len(c.violations) > 0 {
		byClass := c.EpisodesByClass()
		fmt.Fprintf(w, "episodes by bug signature:")
		for _, cl := range Classes() {
			if n := byClass[cl]; n > 0 {
				fmt.Fprintf(w, " %s=%d", cl, n)
			}
		}
		fmt.Fprintln(w)
	}
	if c.lat != nil {
		fmt.Fprintf(w, "wakeup-to-run latency: %s\n", c.lat.WakeDigest())
		if st := c.lat.StreakStats(); st != nil {
			fmt.Fprintf(w, "wakeup-placement streaks (§3.3 witness): %s\n", st)
		}
	}
	for i, v := range c.violations {
		fmt.Fprintf(w, "\nviolation %d: %s\n", i+1, v)
		fmt.Fprintf(w, "  runqueue sizes at confirmation: %v\n", v.NrRunning)
		fmt.Fprintf(w, "  thread ops during monitoring: %d migrations, %d forks\n",
			v.MigrationsDuring, v.ForksDuring)
	}
	if c.rec != nil && c.rec.Len() > 0 {
		fmt.Fprintf(w, "\nload-balancing profile (§4.1):\n")
		fmt.Fprint(w, viz.SummarizeBalance(c.rec.Events(), -1))
		if msg, found := viz.DiagnoseGroupImbalance(c.rec.Events()); found {
			fmt.Fprintln(w, msg)
		}
	}
	return nil
}
