package campaign

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"

	"repro/internal/checker"
	"repro/internal/explain"
	"repro/internal/latency"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RunnerOpts tunes campaign execution. Workers, NoFork and OnResult only
// affect scheduling and reporting — the artifact bytes depend solely on
// the scenarios plus the options' Stamp.
type RunnerOpts struct {
	// Workers is the worker-pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// NoFork runs every scenario as its own job, instead of running
	// each collapsible cell as one job that copies the results of
	// provably equal lattice points (see runCell). Both paths write the
	// same bytes, so, like Workers, it is not stamped; it is the
	// reference path for checking that they do.
	NoFork bool
	// BaseSeed perturbs every scenario's derived engine seed; campaigns
	// with equal BaseSeed and scenarios are byte-identical.
	BaseSeed int64
	// Trace attaches a bounded trace recorder that the sanity checker
	// activates around confirmed violations (the paper's "20ms of
	// systemtap" profiling); the captured event count lands in the
	// artifact.
	Trace bool
	// Checker overrides the sanity-checker tuning. Zero fields take the
	// campaign defaults (see effectiveChecker); the resolved lens is
	// stamped into the artifact.
	Checker checker.Config
	// StreakK overrides the wakeup-streak threshold (0 =
	// latency.DefaultStreakK). The resolved value is stamped into the
	// artifact: streak counts are only comparable at equal K.
	StreakK int
	// Metrics attaches an obs metrics registry to every scenario:
	// scheduler and machine instruments are sampled in virtual time
	// every obs.DefaultCadence and each Result carries a deterministic
	// Snapshot. Like Trace, the toggle (and the cadence) is stamped into
	// the artifact — the sampling timer changes per-result Events
	// counts, so metrics-on and metrics-off artifacts are distinct.
	Metrics bool
	// Explain attaches the causal-observability layer to every scenario:
	// its scheduler decisions are counted, and each
	// confirmed checker episode (plus each wakeup streak) is replayed
	// counterfactually under every single fix from a world forked at the
	// detection instant. Each Result carries a deterministic Explain
	// report. Like Trace, the toggle is stamped into the artifact —
	// episode forking schedules events on scenarios with streaks, so
	// explain-on and explain-off artifacts are distinct.
	Explain bool
	// OnResult, when non-nil, is called from worker goroutines as each
	// scenario finishes (for progress reporting). Calls may arrive in
	// any order; the callback must be safe for concurrent use.
	OnResult func(Result)
}

// EffectiveChecker resolves the campaign's checker defaults: a 100ms
// check interval with a 50ms monitoring window, denser than the paper's
// 1s/100ms so that scaled-down scenario runs still get invariant
// coverage. Both runScenario and Stamp use this one resolution.
func (o RunnerOpts) EffectiveChecker() checker.Config {
	cfg := o.Checker
	if cfg.S == 0 {
		cfg.S = 100 * sim.Millisecond
	}
	if cfg.M == 0 {
		cfg.M = 50 * sim.Millisecond
	}
	return cfg
}

// EffectiveStreakK resolves the wakeup-streak threshold the campaign
// runs (and stamps) — the single resolution shared by runScenario and
// Stamp.
func (o RunnerOpts) EffectiveStreakK() int {
	if o.StreakK <= 0 {
		return latency.DefaultStreakK
	}
	return o.StreakK
}

// Stamp is the run identity these options give an artifact, with every
// default resolved: the model version, base seed, checker lens, streak
// threshold and observation toggles, plus the metrics cadence when
// metrics are on. Scale and horizon belong to the scenarios, so they
// stay zero here; AssembleArtifact adds them.
func (o RunnerOpts) Stamp() Stamp {
	ck := o.EffectiveChecker()
	s := Stamp{ModelVersion: ModelVersion, BaseSeed: o.BaseSeed,
		CheckerSNs: int64(ck.S), CheckerMNs: int64(ck.M), Trace: o.Trace,
		StreakK: o.EffectiveStreakK(), Metrics: o.Metrics, Explain: o.Explain}
	if o.Metrics {
		s.MetricsCadenceNs = int64(obs.DefaultCadence)
	}
	return s
}

// DeriveSeed maps (base seed, scenario key, scenario seed) to the engine
// seed via FNV-1a. The derivation depends only on the scenario's
// identity — never on its index, worker, or completion order — which is
// what makes sharded execution reproducible.
func DeriveSeed(base int64, key string, seed int64) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(key))
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	return int64(h.Sum64())
}

// Run executes a whole matrix. See RunScenarios.
func Run(m Matrix, opts RunnerOpts) (*Campaign, error) {
	return RunScenarios(m.withDefaults().Scenarios(), opts)
}

// RunScenarios executes the given scenarios on a pool of workers and
// returns the aggregate artifact. Each scenario runs on its own
// sim.Engine with a seed derived from (BaseSeed, scenario key), so the
// artifact is byte-identical for any worker count and any scenario
// order.
func RunScenarios(scenarios []Scenario, opts RunnerOpts) (*Campaign, error) {
	return RunScenariosCtx(context.Background(), scenarios, opts)
}

// RunScenariosCtx is the campaign executor. It groups the scenarios by
// cell (CellKey): a cell that cellCollapsible accepts runs as one job
// that simulates only the lattice points the divergence probe cannot
// prove equal (runCell), unless opts.NoFork; every other scenario is
// its own job, in input order. Both paths write the same bytes.
// Repeated scenario keys are an error before anything runs.
//
// When ctx is cancelled the pool stops starting jobs, in-flight ones
// drain to completion (an engine cannot be interrupted mid-run, but no
// goroutine is abandoned), and ctx.Err() is returned instead of a
// partial artifact — an incomplete campaign would violate the
// one-result-per-scenario invariant every consumer relies on.
func RunScenariosCtx(ctx context.Context, scenarios []Scenario, opts RunnerOpts) (*Campaign, error) {
	cells := map[string][]int{}
	cellOf := make([]string, len(scenarios))
	keys := make(map[string]bool, len(scenarios))
	for i, sc := range scenarios {
		key := sc.Key()
		if keys[key] {
			return nil, fmt.Errorf("campaign: duplicate scenario key %q", key)
		}
		keys[key] = true
		cellOf[i] = sc.CellKey()
		cells[cellOf[i]] = append(cells[cellOf[i]], i)
	}
	type job struct {
		idxs     []int // a collapsible cell's scenarios, or one scenario
		collapse bool
	}
	var jobs []job
	collapsible := map[string]bool{}
	for i := range scenarios {
		cell := cells[cellOf[i]]
		if i == cell[0] {
			collapsible[cellOf[i]] = !opts.NoFork && cellCollapsible(scenarios, cell, opts)
			if collapsible[cellOf[i]] {
				jobs = append(jobs, job{idxs: cell, collapse: true})
			}
		}
		if !collapsible[cellOf[i]] {
			jobs = append(jobs, job{idxs: []int{i}})
		}
	}

	results := make([]Result, len(scenarios))
	_, err := ForEachCtx(ctx, len(jobs), opts.Workers, func(j int) struct{} {
		if jb := jobs[j]; jb.collapse {
			runCell(scenarios, jb.idxs, opts, results)
		} else {
			i := jb.idxs[0]
			results[i] = runScenario(scenarios[i], opts, nil)
			if opts.OnResult != nil {
				opts.OnResult(results[i])
			}
		}
		return struct{}{}
	})
	if err != nil {
		return nil, err
	}
	return AssembleArtifact(scenarios, results, opts)
}

// AssembleArtifact builds the campaign artifact for a scenario list from
// already-collected results: metadata is stamped from the full scenario
// list and the runner options, results are key-sorted, and every
// scenario must have exactly one result. It is the single place artifact
// metadata comes from, shared by RunScenarios and the shard package's
// incremental splicing — which is what makes a spliced artifact
// byte-identical to a full re-run.
func AssembleArtifact(scenarios []Scenario, results []Result, opts RunnerOpts) (*Campaign, error) {
	c := &Campaign{Version: Version, Stamp: opts.Stamp(), Results: results}
	// Stamp the policy identities the scenarios ran under (registered
	// policies carry a non-zero version; ad-hoc specs do not and are
	// omitted). JSON objects encode with sorted keys, so the stamp is
	// byte-stable regardless of scenario order.
	for _, sc := range scenarios {
		if sc.Config.Version != 0 {
			if c.Policies == nil {
				c.Policies = map[string]int{}
			}
			c.Policies[sc.Config.Name] = sc.Config.Version
		}
	}
	// Stamp the campaign-wide scale and horizon only when they are
	// uniform across scenarios; a mixed list leaves them zero rather
	// than mislabeling the artifact with the first scenario's values.
	if len(scenarios) > 0 {
		scale, horizon := scenarios[0].Scale, scenarios[0].Horizon
		uniform := true
		for _, sc := range scenarios[1:] {
			if sc.Scale != scale || sc.Horizon != horizon {
				uniform = false
				break
			}
		}
		if uniform {
			c.ScaleMilli = int64(math.Round(scale * 1000))
			c.HorizonNs = int64(horizon)
		}
	}
	want := make(map[string]bool, len(scenarios))
	for _, sc := range scenarios {
		want[sc.Key()] = true
	}
	if len(results) != len(scenarios) {
		return nil, fmt.Errorf("campaign: %d results for %d scenarios", len(results), len(scenarios))
	}
	for i := range results {
		if !want[results[i].Key] {
			return nil, fmt.Errorf("campaign: result %q matches no scenario", results[i].Key)
		}
	}
	if err := c.sortResults(); err != nil {
		return nil, err
	}
	return c, nil
}

// ForEach runs n independent jobs on a pool of workers and returns their
// results in index order. It is the campaign's sharding primitive, also
// used by the experiments package to parallelize table runs. Jobs must
// not share mutable state; each builds its own machine.
func ForEach[T any](n, workers int, job func(i int) T) []T {
	out, _ := ForEachCtx(context.Background(), n, workers, job)
	return out
}

// ForEachCtx is ForEach under a context. Cancellation stops the feed of
// new jobs; jobs already started run to completion and every pool
// goroutine is joined before returning — the caller never leaks
// goroutines and never observes a job half-written. When ctx was
// cancelled before all n jobs started, the returned slice is partial
// (unstarted indices hold zero values) and err is ctx.Err(); callers
// that need a complete result set must treat a non-nil error as "no
// results".
func ForEachCtx[T any](ctx context.Context, n, workers int, job func(i int) T) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			out[i] = job(i)
		}
		return out, ctx.Err()
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = job(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return out, ctx.Err()
}

// runScenario executes one scenario: build the machine, attach the
// sanity checker (and optional placement modules / trace recorder /
// divergence probe), run the workload, and collect every deterministic
// metric. It is the one constructor of a scenario's world: the
// collapsed cell runner builds each point it simulates here too.
func runScenario(sc Scenario, opts RunnerOpts, probe *sched.DivergenceProbe) Result {
	// Seeds derive from the cell key (config removed): all configs of a
	// (topology, workload, seed) cell share one jitter stream, so lattice
	// points differ only by scheduler behaviour — which is what lets the
	// divergence probe prove two of them equal.
	engineSeed := DeriveSeed(opts.BaseSeed, sc.CellKey(), sc.Seed)
	topo := sc.Topology.Build()
	m := machine.New(topo, sc.Config.Config, engineSeed)
	m.Sched.SetDivergenceProbe(probe)

	detach, err := sc.Config.Apply(m.Sched)
	if err != nil {
		panic("campaign: " + err.Error())
	}
	defer detach()

	var rec *trace.Recorder
	if opts.Trace {
		rec = trace.NewRecorder(1 << 16)
		m.SetRecorder(rec)
	}
	var reg *obs.Registry
	if opts.Metrics {
		reg = obs.NewRegistry(m.Eng, obs.Options{Cadence: obs.DefaultCadence})
		m.Sched.AttachObs(reg)
		m.AttachObs(reg)
		reg.Start()
	}
	col := latency.NewCollector(latency.Config{StreakK: opts.EffectiveStreakK()})
	m.Sched.SetLatencyProbe(col)
	ck := checker.New(m.Sched, rec, opts.EffectiveChecker())
	ck.ObserveLatency(col)
	var exo *explain.Observer
	if opts.Explain {
		exo = explain.NewObserver(m, explain.Config{
			Checker: opts.EffectiveChecker(),
			StreakK: opts.EffectiveStreakK(),
		})
		ck.SetEpisodeHook(exo)
		col.SetStreakHook(exo.OnStreak)
	}
	ck.Start()
	defer ck.Stop()

	outcome := sc.Workload.Run(&RunContext{
		M:       m,
		Topo:    topo,
		Seed:    engineSeed,
		Scale:   sc.Scale,
		Horizon: sc.Horizon,
	})

	var idleOverloaded sim.Time
	var classes map[string]int
	var idleByClass map[string]int64
	if violations := ck.Violations(); len(violations) > 0 {
		classes = map[string]int{}
		idleByClass = map[string]int64{}
		for cl, n := range ck.EpisodesByClass() {
			classes[string(cl)] = n
		}
		for cl, d := range ck.IdleByClass() {
			idleByClass[string(cl)] = int64(d)
			idleOverloaded += d
		}
	}
	r := Result{
		Key:                   sc.Key(),
		Topology:              sc.Topology.Name,
		Workload:              sc.Workload.Name,
		Config:                sc.Config.Name,
		Seed:                  sc.Seed,
		EngineSeed:            engineSeed,
		MakespanNs:            int64(outcome.Makespan),
		Completed:             outcome.Completed,
		Events:                m.Eng.Processed(),
		Counters:              m.Sched.Counters(),
		CheckerChecks:         ck.Checks(),
		CheckerCandidates:     ck.Candidates(),
		CheckerTransients:     ck.Transients(),
		Violations:            len(ck.Violations()),
		IdleWhileOverloadedNs: int64(idleOverloaded),
		EpisodeClasses:        classes,
		IdleNsByClass:         idleByClass,
		WakeLatency:           col.WakeDigest(),
		RunqWait:              col.WaitDigest(),
		WakeStreaks:           col.StreakStats(),
		Extra:                 outcome.Extra,
	}
	if rec != nil {
		r.TraceEvents = rec.Len()
		r.TraceDropped = rec.Dropped()
	}
	if reg != nil {
		r.Metrics = reg.Snapshot()
	}
	if exo != nil {
		r.Explain = exo.Report()
	}
	return r
}
