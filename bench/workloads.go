package main

import (
	"bytes"
	"fmt"

	"repro/internal/bisect"
	"repro/internal/campaign"
	"repro/internal/shard"
)

// workers is the campaign pool size of every workload. It is fixed, not
// taken from the host, so that numbers from one host stay comparable
// across commits.
const workers = 2

// workload is one named input set of the benchmark. setup builds the
// inputs of one run from the seed; reduced selects the small smoke-sized
// input that the tests and the set-up warm-up use.
type workload struct {
	name  string
	setup func(seed int64, reduced bool) (*instance, error)
}

// instance is a set-up workload. One pass runs the program on the
// inputs and returns the output bytes every pass must reproduce, plus
// the artifact whose results it simulated (nil when it simulated none).
type instance struct {
	scenarios int // scenario results one pass produces
	pass      func(tr *tracer) (out []byte, sim *campaign.Campaign, err error)
}

var workloads = []workload{
	{"sweep-full", setupSweepFull},
	{"bisect-default", setupBisectDefault},
	{"explain-smoke", setupExplainSmoke},
	{"artifact-cycle", setupArtifactCycle},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupSweepFull: the full matrix (1560 scenarios) at scale 0.25 on the
// sequential runner. The scale keeps every scenario of the matrix while
// a pass takes under 3 s, so that a run holds enough passes for a steady
// median. Reduced, it is the default matrix at scale 0.25, the sweep of
// `make campaign`.
func setupSweepFull(seed int64, reduced bool) (*instance, error) {
	m := campaign.FullMatrix()
	if reduced {
		m = campaign.DefaultMatrix()
	}
	m.Scale = 0.25
	scenarios := m.Scenarios()
	opts := campaign.RunnerOpts{Workers: workers, BaseSeed: seed}
	return &instance{scenarios: len(scenarios), pass: func(tr *tracer) (out []byte, c *campaign.Campaign, err error) {
		tr.span("campaign.run", func() { c, err = campaign.RunScenarios(tr.wrap(scenarios), tr.opts(opts)) })
		if err != nil {
			return nil, nil, err
		}
		out, err = encode(tr, c)
		return out, c, err
	}}, nil
}

// setupBisectDefault: the default bisect preset (128 scenarios in 8
// cells) on the forked lattice runner, then the lattice analysis.
func setupBisectDefault(seed int64, reduced bool) (*instance, error) {
	o := bisect.DefaultOptions()
	if reduced {
		o = bisect.SmokeOptions()
	}
	return lattice(o, seed, campaign.RunScenariosForked), nil
}

// setupExplainSmoke: the smoke bisect preset with provenance and
// counterfactual episode replay, over workload seeds 1 and 2 (96
// scenarios in 6 cells). How many episodes a cell replays depends on the
// seed; two seeds halve that variance. It runs on the sequential runner:
// cmd/bisect's forked runner takes explain cells off the fork path and
// runs each cell's scenarios with the same per-scenario code, but one
// cell to a worker, so the pass time would depend on how cells of
// seed-dependent cost pack onto the two workers.
func setupExplainSmoke(seed int64, reduced bool) (*instance, error) {
	o := bisect.SmokeOptions()
	if reduced {
		o.Workloads = campaign.MustWorkloads("tpch")
	} else {
		o.Seeds = []int64{1, 2}
	}
	o.Explain = true
	return lattice(o, seed, campaign.RunScenarios), nil
}

// lattice is one bisect sweep as cmd/bisect runs it, with the runner
// called directly so that it is timed apart from the analysis.
func lattice(o bisect.Options, seed int64,
	runner func([]campaign.Scenario, campaign.RunnerOpts) (*campaign.Campaign, error)) *instance {
	o.BaseSeed = seed
	o.Workers = workers
	scenarios := o.Matrix().Scenarios()
	opts := campaign.RunnerOpts{Workers: workers, BaseSeed: seed, Checker: o.Checker,
		StreakK: o.StreakK, Explain: o.Explain}
	return &instance{scenarios: len(scenarios), pass: func(tr *tracer) (out []byte, c *campaign.Campaign, err error) {
		tr.span("campaign.run", func() { c, err = runner(tr.wrap(scenarios), tr.opts(opts)) })
		if err != nil {
			return nil, nil, err
		}
		var r *bisect.Report
		tr.span("bisect.analyze", func() { r, err = bisect.Analyze(c, o) })
		if err != nil {
			return nil, nil, err
		}
		tr.span("bisect.encode", func() { out, err = r.EncodeJSON() })
		return out, c, err
	}}
}

// artifactParts is how many shards the artifact cycle splits into.
const artifactParts = 4

// setupArtifactCycle simulates the full matrix at scale 0.1 once, as the
// prior artifact. One pass then decodes it, re-plans it incrementally
// (nothing may need to run), splits it into shards that each round-trip
// through the codec, merges and compares them, and encodes the merge,
// which must equal the prior byte for byte.
func setupArtifactCycle(seed int64, reduced bool) (*instance, error) {
	m := campaign.FullMatrix()
	m.Scale = 0.1
	if reduced {
		m = campaign.SmokeMatrix()
	}
	scenarios := m.Scenarios()
	opts := campaign.RunnerOpts{Workers: workers, BaseSeed: seed}
	prior, err := campaign.RunScenarios(scenarios, opts)
	if err != nil {
		return nil, err
	}
	priorJSON, err := prior.EncodeJSON()
	if err != nil {
		return nil, err
	}
	return &instance{scenarios: len(scenarios), pass: func(tr *tracer) ([]byte, *campaign.Campaign, error) {
		c, err := decode(tr, priorJSON)
		if err != nil {
			return nil, nil, err
		}
		full, err := splice(tr, scenarios, c, opts)
		if err != nil {
			return nil, nil, err
		}
		parts := make([]*campaign.Campaign, 0, artifactParts)
		for i := 1; i <= artifactParts; i++ {
			var sel []campaign.Scenario
			tr.span("shard.select", func() { sel, err = shard.Spec{Index: i, Count: artifactParts}.Select(scenarios) })
			if err != nil {
				return nil, nil, err
			}
			part, err := splice(tr, sel, c, opts)
			if err != nil {
				return nil, nil, err
			}
			data, err := encode(tr, part)
			if err != nil {
				return nil, nil, err
			}
			if part, err = decode(tr, data); err != nil {
				return nil, nil, err
			}
			parts = append(parts, part)
		}
		var merged *campaign.Campaign
		tr.span("shard.merge", func() { merged, err = shard.Merge(parts...) })
		if err != nil {
			return nil, nil, err
		}
		var cmp *campaign.Comparison
		tr.span("campaign.compare", func() { cmp = campaign.Compare(full, merged, 0) })
		if !cmp.Clean() || len(cmp.Improvements)+len(cmp.MissingKeys)+len(cmp.NewKeys) > 0 || cmp.Compared == 0 {
			return nil, nil, fmt.Errorf("merged shards differ from the spliced artifact:\n%s",
				campaign.FormatComparison(cmp))
		}
		out, err := encode(tr, merged)
		if err == nil && !bytes.Equal(out, priorJSON) {
			err = fmt.Errorf("merged artifact (%d bytes) differs from the prior (%d bytes)", len(out), len(priorJSON))
		}
		return out, nil, err
	}}, nil
}

// splice re-plans scenarios against a prior that already holds all of
// them and executes the plan, which must run nothing.
func splice(tr *tracer, scenarios []campaign.Scenario, prior *campaign.Campaign,
	opts campaign.RunnerOpts) (c *campaign.Campaign, err error) {
	var d *shard.Diff
	tr.span("shard.plan", func() { d = shard.Plan(scenarios, prior, opts) })
	if len(d.ToRun) != 0 {
		return nil, fmt.Errorf("incremental plan against an unchanged prior: %s", d.Summary())
	}
	tr.span("shard.execute", func() { c, err = d.Execute(opts) })
	return c, err
}

func encode(tr *tracer, c *campaign.Campaign) (out []byte, err error) {
	tr.span("campaign.encode", func() { out, err = c.EncodeJSON() })
	return out, err
}

func decode(tr *tracer, data []byte) (c *campaign.Campaign, err error) {
	tr.span("campaign.decode", func() { c, err = campaign.Decode(data) })
	return c, err
}
