package main

import (
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/topology"
)

// span is one timed interval of a traced pass. Spans of one pass share
// the pass number; parent names the span that encloses this one.
type span struct {
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Key    string `json:"key,omitempty"` // scenario key, for per-scenario spans
	Start  int64  `json:"start_ns"`      // since the traced phase began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory around the calls a traced pass makes
// into each layer. Per scenario it wraps the public Topology.Build and
// Workload.Run func fields and the runner's OnResult callback, which are
// called from the campaign's worker goroutines.
//
// span, wrap and opts accept a nil *tracer: it records nothing and
// leaves the scenarios and runner options untouched, so untraced passes
// run the program exactly as a user does.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	pass    int
	spans   []span
	buildAt map[string]int64 // scenario key -> Topology.Build start, this pass
	runAt   map[string]int64 // scenario key -> Workload.Run start, this pass
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginPass starts a new pass: scenario keys repeat across passes.
func (t *tracer) beginPass() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pass++
	t.buildAt = map[string]int64{}
	t.runAt = map[string]int64{}
}

// simulated reports whether this pass called Workload.Run for key,
// rather than copying the result of an equivalent lattice point.
func (t *tracer) simulated(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.runAt[key]
	return ok
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Pass = t.pass
	t.spans = append(t.spans, s)
}

// span times fn as a call from the pass into a layer.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	fn()
	t.add(span{Name: name, Parent: "pass", Start: start, End: t.now()})
}

// wrap returns the scenarios with their Build and Run fields timed.
// campaign.build spans run from Topology.Build to the scenario's
// Workload.Run (the forked runner builds once per cell, so only a cell's
// first scenario has one); campaign.simulate spans cover Workload.Run.
func (t *tracer) wrap(scenarios []campaign.Scenario) []campaign.Scenario {
	if t == nil {
		return scenarios
	}
	out := make([]campaign.Scenario, len(scenarios))
	for i, sc := range scenarios {
		key, build, run := sc.Key(), sc.Topology.Build, sc.Workload.Run
		sc.Topology.Build = func() *topology.Topology {
			start := t.now()
			t.mu.Lock()
			t.buildAt[key] = start
			t.mu.Unlock()
			return build()
		}
		sc.Workload.Run = func(rc *campaign.RunContext) campaign.Outcome {
			start := t.now()
			t.mu.Lock()
			t.runAt[key] = start
			built, ok := t.buildAt[key]
			t.mu.Unlock()
			if ok {
				t.add(span{Name: "campaign.build", Parent: "campaign.scenario", Key: key, Start: built, End: start})
			}
			o := run(rc)
			t.add(span{Name: "campaign.simulate", Parent: "campaign.scenario", Key: key, Start: start, End: t.now()})
			return o
		}
		out[i] = sc
	}
	return out
}

// opts returns the runner options with an OnResult that closes each
// simulated scenario's campaign.scenario span, from its Build (or, on a
// forked cell's later scenarios, its Run) to its result.
func (t *tracer) opts(o campaign.RunnerOpts) campaign.RunnerOpts {
	if t == nil {
		return o
	}
	o.OnResult = func(r campaign.Result) {
		end := t.now()
		t.mu.Lock()
		start, ok := t.buildAt[r.Key]
		if !ok {
			start, ok = t.runAt[r.Key]
		}
		t.mu.Unlock()
		if ok {
			t.add(span{Name: "campaign.scenario", Parent: "campaign.run", Key: r.Key, Start: start, End: end})
		}
	}
	return o
}
