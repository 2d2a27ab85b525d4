package main

import (
	"strings"
	"time"
)

// packages are the repro/internal packages the benchmark links; each is
// a layer with a <pkg>.self_s metric. A sample in a package missing here
// would drop out of the per-layer sum, which the tests check.
var packages = []string{
	"bisect", "campaign", "checker", "explain", "globalq", "latency", "machine",
	"modsched", "obs", "policy", "rbtree", "sched", "shard", "sim", "stats",
	"topology", "trace", "viz", "workload",
}

// layerOf names the layer a profiled function belongs to: its
// repro/internal package, "harness" for the benchmark's own code (package
// main, or repro/bench under go test), or "" for anything else.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/bench.") {
		return "harness"
	}
	return ""
}

// attribution splits a CPU profile by layer.
type attribution struct {
	// self is each sample's CPU charged to the innermost frame that has a
	// layer, so a package's self time includes the runtime work (malloc,
	// GC assists, map and slice growth) it calls into. Samples with no
	// such frame, mostly background GC, go to "runtime".
	self        map[string]time.Duration
	explainIncl time.Duration // samples with an explain frame anywhere on the stack
	alloc       time.Duration // samples with runtime.mallocgc on the stack
	total       time.Duration
}

func attribute(samples []cpuSample) attribution {
	a := attribution{self: map[string]time.Duration{}}
	for _, s := range samples {
		d := time.Duration(s.ns)
		a.total += d
		layer, explain, alloc := "", false, false
		for _, fn := range s.stack {
			if layer == "" {
				layer = layerOf(fn)
			}
			explain = explain || strings.HasPrefix(fn, "repro/internal/explain.")
			alloc = alloc || fn == "runtime.mallocgc"
		}
		if layer == "" {
			layer = "runtime"
		}
		a.self[layer] += d
		if explain {
			a.explainIncl += d
		}
		if alloc {
			a.alloc += d
		}
	}
	return a
}

// layerMetrics derives the per-layer metrics of a traced phase, each per
// pass: CPU by layer from the profile, time in each layer call from the
// spans, and the work counts of the simulated scenarios.
func layerMetrics(a attribution, spans []span, ph phase) map[string]metric {
	n := float64(len(ph.durs))
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	perPass := func(d time.Duration) float64 { return d.Seconds() / n }

	for _, p := range packages {
		put(p+".self_s", "s", perPass(a.self[p]))
	}
	put("harness.self_s", "s", perPass(a.self["harness"]))
	put("runtime.gc_s", "s", perPass(a.self["runtime"]))
	put("runtime.alloc_s", "s", perPass(a.alloc))
	put("explain.incl_s", "s", perPass(a.explainIncl))
	put("profile.cpu_s", "s", perPass(a.total))

	byName := map[string]time.Duration{}
	var scenarioDurs []time.Duration
	for _, s := range spans {
		byName[s.Name] += s.dur()
		if s.Name == "campaign.scenario" {
			scenarioDurs = append(scenarioDurs, s.dur())
		}
	}
	for _, name := range []string{
		"campaign.build", "campaign.simulate", "campaign.encode", "campaign.decode",
		"campaign.compare", "bisect.analyze", "bisect.encode",
		"shard.select", "shard.plan", "shard.execute", "shard.merge",
	} {
		put(name+"_s", "s", perPass(byName[name]))
	}
	put("campaign.scenario_p50_ms", "ms", float64(quantile(scenarioDurs, 0.5))/1e6)
	put("campaign.scenario_p99_ms", "ms", float64(quantile(scenarioDurs, 0.99))/1e6)
	put("campaign.pool_busy_frac", "fraction",
		ratio(float64(byName["campaign.scenario"]), float64(workers*byName["campaign.run"])))

	c := ph.counts
	perPassN := func(v uint64) float64 { return float64(v) / n }
	put("sched.balance_calls", "count", perPassN(c.balance))
	put("sched.migrations", "count", perPassN(c.migrations))
	put("sched.wakeups", "count", perPassN(c.wakeups))
	put("sched.switches", "count", perPassN(c.switches))
	put("sim.events", "count", perPassN(c.events))
	put("sim.ns_per_event", "ns", ratio(float64(a.self["sim"]), float64(c.events)))
	put("checker.checks", "count", perPassN(c.checks))
	put("checker.candidates", "count", perPassN(c.candidates))
	put("latency.samples", "count", perPassN(c.latencySamps))
	put("explain.episodes", "count", perPassN(c.episodes))
	put("explain.replay_events", "count", perPassN(c.replayEvents))
	put("explain.useful_fork_frac", "fraction", ratio(float64(c.checkerEpisodes), float64(c.explainCandidates)))
	put("campaign.fork_collapsed_frac", "fraction", ratio(float64(c.scenarios-c.simulated), float64(c.scenarios)))
	return m
}
