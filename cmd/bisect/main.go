// Command bisect walks the 2^4 bug-fix lattice: for every (topology,
// workload, seed) cell it runs all 16 combinations of the paper's four
// fixes through the campaign worker pool, then names the minimal fix
// set(s) that eliminate each idle-while-overloaded episode class, the
// non-monotone interactions (fix combinations that re-introduce
// violations, like the min-load fix under affinity pinning), and the
// minimal sets recovering best-case makespan.
//
// The sweep distributes like any campaign: -shard i/n runs a
// deterministic slice of the lattice matrix and writes a *campaign*
// shard artifact (a shard cannot be analyzed — its lattice is
// incomplete by construction), and -merge reconstructs the full
// campaign from shard artifacts and analyzes it, validating lattice
// completeness, into the byte-identical report a single process would
// have produced. -incremental re-runs only scenarios whose identity
// changed since a prior bisect artifact, splicing its embedded campaign
// for the rest.
//
// Usage:
//
//	bisect [flags]
//	bisect -merge [flags] shard1.json shard2.json ...
//
// Examples:
//
//	bisect -preset smoke -out bisect.json
//	bisect -preset default -workers 8
//	bisect -topos bulldozer8 -loads nas-pin:lu -seeds 1,2,3
//	bisect -preset smoke -baseline bisect.json
//	bisect -preset smoke -shard 1/3 -out shard1.json
//	bisect -preset smoke -merge -out bisect.json shard1.json shard2.json shard3.json
//	bisect -preset smoke -incremental bisect.json -out bisect.json
//
// Flags:
//
//	-preset name     sweep preset: smoke (48 scenarios), default, full
//	-topos csv       override topologies (see campaign -list)
//	-loads csv       override workloads
//	-seeds csv       override workload seeds
//	-shard i/n       run only the i-th of n shards; writes a campaign artifact
//	-merge           merge shard artifacts (positional args) and analyze
//	-incremental f   prior bisect artifact: execute only new/changed scenarios
//	-workers n       worker pool size (default GOMAXPROCS)
//	-seed n          campaign base seed (default 42)
//	-scale f         workload scale factor (default per preset)
//	-horizon s       per-scenario virtual-time bound in seconds
//	-perftol pct     perf-verdict makespan tolerance percent (default 10)
//	-lattol pct      latency-verdict p99 wakeup-delay tolerance percent
//	                 (default 10, plus a 100µs absolute slack)
//	-streak-k n      wakeup-streak threshold for the episode-level
//	                 overload-on-wakeup witness (default 4)
//	-out file        write the JSON artifact here ("-" for stdout)
//	-baseline file   compare the artifact's bytes with a previous bisect
//	                 artifact; exit 3 when they differ, with a report of why
//	-diff-out file   also write the -baseline report to this file
//	-trace-out file  export one scenario as Chrome trace-event / Perfetto
//	                 JSON (a deterministic side run; the artifact is
//	                 unaffected); open the file at ui.perfetto.dev
//	-trace-key key   scenario to export (default: first key)
//	-explain         record decision provenance and counterfactually replay
//	                 each confirmed episode under every single fix; the
//	                 report cross-checks per-episode attributions against
//	                 the lattice's minimal fix sets (explain_check), and
//	                 -trace-out exports gain provenance/episode tracks
//	-no-fork         simulate every lattice point from scratch instead
//	                 of forking each cell's shared prefix (the escape
//	                 hatch for validating the fork runner: both paths
//	                 must produce byte-identical artifacts)
//	-q               suppress the verdict summary and the end-of-run line
//
// Exit codes: 0 on success, 1 on runtime/IO errors (including an
// unreadable baseline), 2 on usage errors, 3 when the artifact differs
// from -baseline — so CI can distinguish "the scheduler model changed"
// from "the invocation is broken".
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bisect"
	"repro/internal/campaign"
	"repro/internal/shard"
	"repro/internal/sim"
)

// exitRegression is the dedicated exit code for an artifact that differs
// from -baseline, distinct from runtime errors (1) and usage errors (2).
const exitRegression = 3

func main() {
	var (
		preset      = flag.String("preset", "default", "sweep preset: smoke, default, full")
		topos       = flag.String("topos", "", "comma-separated topology overrides")
		loads       = flag.String("loads", "", "comma-separated workload overrides")
		seeds       = flag.String("seeds", "", "comma-separated workload seed overrides")
		shardSpec   = flag.String("shard", "", "run only shard i of n (\"i/n\"); writes a campaign artifact")
		mergeMode   = flag.Bool("merge", false, "merge shard artifacts (positional args) and analyze")
		incremental = flag.String("incremental", "", "prior bisect artifact: execute only new/changed scenarios")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		baseSeed    = flag.Int64("seed", 42, "campaign base seed")
		scale       = flag.Float64("scale", 0, "workload scale factor (0 = preset default)")
		horizon     = flag.Float64("horizon", 0, "per-scenario horizon in virtual seconds (0 = preset default)")
		perfTol     = flag.Float64("perftol", 0, "perf-verdict makespan tolerance percent (0 = default 10)")
		latTol      = flag.Float64("lattol", 0, "latency-verdict p99 tolerance percent (0 = default 10)")
		streakK     = flag.Int("streak-k", 0, "wakeup-streak threshold (0 = default 4)")
		out         = flag.String("out", "", "write JSON artifact to this file (\"-\" for stdout)")
		baseline    = flag.String("baseline", "", "exit 3 when the artifact's bytes differ from this bisect artifact's")
		diffOut     = flag.String("diff-out", "", "write the baseline report to this file")
		traceOut    = flag.String("trace-out", "", "export one scenario as Perfetto JSON to this file")
		traceKey    = flag.String("trace-key", "", "scenario key to export with -trace-out (default: first)")
		explainOn   = flag.Bool("explain", false, "record decision provenance and replay episodes counterfactually")
		noFork      = flag.Bool("no-fork", false, "simulate every lattice point from scratch (bypass the checkpoint/fork runner)")
		quiet       = flag.Bool("q", false, "suppress the verdict summary and the end-of-run line")
	)
	flag.Parse()

	if *streakK < 0 {
		usagef("-streak-k must be >= 0 (0 = default)")
	}
	o, ok := bisect.OptionsByName(*preset)
	if !ok {
		usagef("unknown preset %q (want smoke, default or full)", *preset)
	}
	if err := applyOverrides(&o, *topos, *loads, *seeds); err != nil {
		usagef("%v", err)
	}
	o.Workers = *workers
	o.BaseSeed = *baseSeed
	if *scale > 0 {
		o.Scale = *scale
	}
	if *horizon > 0 {
		o.Horizon = sim.Time(*horizon * float64(sim.Second))
	}
	if *perfTol > 0 {
		o.PerfTolerancePct = *perfTol
	}
	if *latTol > 0 {
		o.LatencyTolerancePct = *latTol
	}
	o.StreakK = *streakK
	o.NoFork = *noFork
	o.Explain = *explainOn
	opts := o.RunnerOpts()
	start := time.Now()
	logRun := func(ran int) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "bisect: ran %d scenarios in %.2fs\n", ran, time.Since(start).Seconds())
		}
	}

	if *shardSpec != "" {
		// A shard of the lattice is a campaign artifact, not a report:
		// analysis needs the whole lattice, which only -merge restores.
		if *mergeMode || *incremental != "" || *baseline != "" {
			usagef("-shard does not combine with -merge, -incremental or -baseline; merge the shards first")
		}
		runShard(o, opts, *shardSpec, *out, *quiet, logRun)
		exportTrace(o, opts, *traceOut, *traceKey)
		return
	}

	var r *bisect.Report
	switch {
	case *mergeMode:
		if *incremental != "" {
			usagef("-merge does not combine with -incremental")
		}
		if flag.NArg() == 0 {
			usagef("-merge needs shard artifact files as arguments")
		}
		parts := make([]*campaign.Campaign, 0, flag.NArg())
		for _, path := range flag.Args() {
			parts = append(parts, loadShardArtifact(path))
		}
		merged, err := shard.Merge(parts...)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "bisect: merged %d shard artifacts into %d scenarios; analyzing\n",
			flag.NArg(), len(merged.Results))
		r, err = bisect.Analyze(merged, o)
		if err != nil {
			fatalf("%v", err)
		}
	case *incremental != "":
		if flag.NArg() > 0 {
			usagef("unexpected arguments %q (artifact files only follow -merge)", flag.Args())
		}
		prior, err := bisect.Load(*incremental)
		if err != nil {
			fatalf("%v", err)
		}
		scenarios := o.Matrix().Scenarios()
		diff := shard.Plan(scenarios, prior.Campaign, opts)
		fmt.Fprintf(os.Stderr, "bisect: incremental vs %s: %s\n", *incremental, diff.Summary())
		c, err := diff.Execute(opts)
		if err != nil {
			fatalf("%v", err)
		}
		logRun(len(diff.ToRun))
		if r, err = bisect.Analyze(c, o); err != nil {
			fatalf("%v", err)
		}
	default:
		if flag.NArg() > 0 {
			usagef("unexpected arguments %q (artifact files only follow -merge)", flag.Args())
		}
		fmt.Fprintf(os.Stderr, "bisect: running %d scenarios (%d cells x %d lattice points, base seed %d, scale %g)\n",
			o.Matrix().Size(), o.Matrix().Size()/bisect.NumSets, bisect.NumSets, o.BaseSeed, o.Scale)
		var err error
		if r, err = bisect.Run(o); err != nil {
			fatalf("%v", err)
		}
		logRun(o.Matrix().Size())
	}
	exportTrace(o, opts, *traceOut, *traceKey)

	if !*quiet {
		if *out == "-" {
			fmt.Fprint(os.Stderr, r.FormatSummary())
		} else {
			fmt.Print(r.FormatSummary())
		}
	}
	if *out == "" && *baseline == "" {
		return
	}
	data, err := r.EncodeJSON()
	if err != nil {
		fatalf("%v", err)
	}
	if *out == "-" {
		os.Stdout.Write(data)
	} else if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "bisect: wrote %s (%d bytes)\n", *out, len(data))
	}
	if *baseline != "" {
		baseData, err := os.ReadFile(*baseline)
		if err != nil {
			fatalf("%v", err)
		}
		base, err := bisect.Decode(baseData)
		if err != nil {
			fatalf("%s: %v", *baseline, err)
		}
		report, differs := campaign.BaselineReport(*baseline, baseData, data, base.Campaign, r.Campaign, "")
		fmt.Print(report)
		if *diffOut != "" {
			if err := os.WriteFile(*diffOut, []byte(report), 0o644); err != nil {
				fatalf("%v", err)
			}
		}
		if differs {
			os.Exit(exitRegression)
		}
	}
}

// runShard executes one shard of the lattice matrix and writes the
// campaign shard artifact.
func runShard(o bisect.Options, opts campaign.RunnerOpts, spec, out string, quiet bool, logRun func(int)) {
	sp, err := shard.ParseSpec(spec)
	if err != nil {
		usagef("%v", err)
	}
	scenarios, err := sp.Select(o.Matrix().Scenarios())
	if err != nil {
		// A spec that parses but cannot partition this matrix (index out
		// of range for it, duplicate keys) is still a bad invocation.
		usagef("%v", err)
	}
	fmt.Fprintf(os.Stderr, "bisect: shard %s holds %d of %d scenarios (campaign artifact only; -merge analyzes)\n",
		sp, len(scenarios), o.Matrix().Size())
	c, err := campaign.RunScenarios(scenarios, opts)
	if err != nil {
		fatalf("%v", err)
	}
	logRun(len(scenarios))
	if !quiet {
		if out == "-" {
			fmt.Fprint(os.Stderr, c.FormatSummary())
		} else {
			fmt.Print(c.FormatSummary())
		}
	}
	if out == "" {
		return
	}
	data, err := c.EncodeJSON()
	if err != nil {
		fatalf("%v", err)
	}
	if out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		fatalf("%v", err)
	} else {
		fmt.Fprintf(os.Stderr, "bisect: wrote shard artifact %s (%d bytes)\n", out, len(data))
	}
}

// exportTrace writes one scenario of the sweep as Perfetto JSON — a
// deterministic side run that leaves the report artifact untouched.
func exportTrace(o bisect.Options, opts campaign.RunnerOpts, outPath, key string) {
	if outPath == "" {
		return
	}
	sc, err := campaign.SelectExportScenario(o.Matrix().Scenarios(), key)
	if err != nil {
		fatalf("%v", err)
	}
	f, err := os.Create(outPath)
	if err != nil {
		fatalf("%v", err)
	}
	exp, err := campaign.ExportPerfetto(sc, opts, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "bisect: wrote Perfetto trace %s (scenario %s, %d events) — open at ui.perfetto.dev\n",
		outPath, exp.Key, exp.Events)
	if exp.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "bisect: warning: trace dropped %d events (capture buffer full); timeline has gaps\n",
			exp.Dropped)
	}
}

// loadShardArtifact reads a merge input: a campaign shard artifact, or a
// full bisect artifact whose embedded campaign is used (so a previous
// report can fill shards that did not re-run). Trying bisect first
// matters — a bisect report also parses as an empty campaign artifact.
func loadShardArtifact(path string) *campaign.Campaign {
	if r, err := bisect.Load(path); err == nil {
		return r.Campaign
	}
	c, err := campaign.Load(path)
	if err != nil {
		fatalf("%v", err)
	}
	return c
}

// applyOverrides swaps sweep dimensions for the ones named on the
// command line.
func applyOverrides(o *bisect.Options, topos, loads, seeds string) error {
	if topos != "" {
		o.Topologies = o.Topologies[:0]
		for _, name := range splitCSV(topos) {
			t, ok := campaign.TopologyByName(name)
			if !ok {
				return fmt.Errorf("unknown topology %q (have: %s)", name, campaign.TopologyNames())
			}
			o.Topologies = append(o.Topologies, t)
		}
	}
	if loads != "" {
		o.Workloads = o.Workloads[:0]
		for _, name := range splitCSV(loads) {
			w, ok := campaign.WorkloadByName(name)
			if !ok {
				return fmt.Errorf("unknown workload %q (have: %s, plus nas:<app>)", name, campaign.WorkloadNames())
			}
			o.Workloads = append(o.Workloads, w)
		}
	}
	if seeds != "" {
		o.Seeds = o.Seeds[:0]
		for _, s := range splitCSV(seeds) {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed %q: %v", s, err)
			}
			o.Seeds = append(o.Seeds, n)
		}
	}
	return nil
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	msg = strings.TrimPrefix(msg, "bisect: ")
	fmt.Fprintf(os.Stderr, "bisect: %s\n", msg)
	os.Exit(1)
}

// usagef reports a bad invocation (exit 2, like flag parse errors), as
// opposed to runtime failures (exit 1) and baseline differences (3).
func usagef(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	msg = strings.TrimPrefix(msg, "bisect: ")
	fmt.Fprintf(os.Stderr, "bisect: %s\n", msg)
	os.Exit(2)
}
