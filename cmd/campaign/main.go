// Command campaign runs a scenario campaign: the cross-product of
// topologies, workloads, scheduler configurations and seeds, executed on
// a sharded worker pool, with the §4.1 sanity checker watching every
// run. The aggregate JSON artifact is byte-identical for any -workers
// value, so artifacts from different machines diff cleanly, and
// -baseline fails a run whose artifact differs from a previous one by
// a single byte, with a report of which stamp fields, scenarios and
// metrics moved.
//
// Beyond one process, -shard i/n runs a deterministic slice of the
// matrix (key-ordered round-robin, so a CI matrix of n jobs agrees on
// the partition with no coordination), -merge reconstructs the
// single-process artifact from shard artifacts byte for byte, and
// -incremental re-runs only the scenarios whose identity changed since
// a prior artifact, splicing cached results for the rest.
//
// Usage:
//
//	campaign [flags]
//	campaign -merge [flags] shard1.json shard2.json ...
//
// Examples:
//
//	campaign -matrix default -scale 0.25 -out campaign.json
//	campaign -matrix default -scale 0.25 -baseline campaign.json
//	campaign -topos bulldozer8 -loads tpch,nas:lu -configs bugs,fixed -seeds 1,2
//	campaign -matrix default -scale 0.25 -shard 2/3 -out shard2.json
//	campaign -merge -out campaign.json shard1.json shard2.json shard3.json
//	campaign -matrix default -scale 0.25 -incremental campaign.json -out campaign.json
//
// Flags:
//
//	-matrix name     preset matrix: default (30 scenarios), smoke, full
//	-topos csv       override topologies (see -list)
//	-loads csv       override workloads
//	-configs csv     override scheduler configs
//	-seeds csv       override workload seeds
//	-shard i/n       run only the i-th of n deterministic shards
//	-merge           merge shard artifacts (positional args) instead of running
//	-incremental f   prior artifact: execute only new/changed scenarios
//	-workers n       worker pool size (default GOMAXPROCS)
//	-seed n          campaign base seed (default 42)
//	-scale f         workload scale factor (default per preset)
//	-horizon s       per-scenario virtual-time bound in seconds (default per
//	                 preset: 200)
//	-streak-k n      wakeup-streak threshold: n consecutive wakeups on busy
//	                 cores while an allowed core idles form a witnessed
//	                 streak (default 4; stamped into the artifact)
//	-trace           capture violation-window traces
//	-explain         record decision provenance and counterfactually replay
//	                 each confirmed episode under every single fix (stamped
//	                 into the artifact; also annotates -trace-out exports
//	                 with decision and episode tracks)
//	-metrics         sample scheduler/machine metrics every 10 virtual ms
//	                 into per-result snapshots (stamped into the artifact)
//	-trace-out file  export one scenario as Chrome trace-event / Perfetto
//	                 JSON (a deterministic side run — the artifact is
//	                 unaffected); open the file at ui.perfetto.dev
//	-trace-key key   scenario to export (default: first key)
//	-out file        write the JSON artifact here ("-" for stdout)
//	-baseline file   compare the artifact's bytes with a previous artifact;
//	                 exit 3 when they differ, with a report of why
//	-diff-out file   also write the -baseline report to this file
//	-q               suppress the summary table and the end-of-run line
//	-list            print every topology, workload and config name the
//	                 overrides accept (with the family patterns) and exit
//
// A negative or non-finite number, or a dimension entry given twice, is
// a usage error. Ctrl-C or SIGTERM drains the in-flight scenarios and
// exits 1 without writing anything.
//
// Exit codes: 0 on success, 1 on runtime/IO errors (including an
// unreadable baseline), 2 on usage errors, 3 when the artifact differs
// from -baseline — so CI can distinguish "the scheduler model changed"
// from "the invocation is broken".
package main

import (
	"flag"

	"repro/internal/campaign"
	"repro/internal/cli"
)

func main() {
	f := cli.Register("campaign", cli.Shards|cli.List)
	var (
		matrixName = flag.String("matrix", "default", "preset matrix: default, smoke, full")
		configs    = flag.String("configs", "", "comma-separated config overrides")
		traceOn    = flag.Bool("trace", false, "capture violation-window traces")
		metricsOn  = flag.Bool("metrics", false, "sample virtual-time metrics into per-result snapshots")
	)
	f.Parse("configs")
	m, ok := campaign.MatrixByName(*matrixName)
	if !ok {
		f.Usagef("unknown matrix preset %q (want default, smoke or full)", *matrixName)
	}
	opts := f.RunnerOpts(campaign.RunnerOpts{Trace: *traceOn, Metrics: *metricsOn})
	cli.Run(f, cli.CampaignSweep, f.Matrix(m, "config", *configs).Scenarios(), opts)
}
