// Command bisect walks the 2^4 bug-fix lattice: for every (topology,
// workload, seed) cell it runs all 16 combinations of the paper's four
// fixes through the campaign worker pool, then names the minimal fix
// set(s) that eliminate each idle-while-overloaded episode class, the
// non-monotone interactions (fix combinations that re-introduce
// violations, like the min-load fix under affinity pinning), and the
// minimal sets recovering best-case makespan (within 10%).
//
// The sweep distributes like any campaign: -shard i/n runs a
// deterministic slice of the lattice matrix and writes a *campaign*
// shard artifact (a shard cannot be analyzed — its lattice is
// incomplete by construction), and -merge reconstructs the full
// campaign from shard artifacts and analyzes it, validating lattice
// completeness, into the byte-identical report a single process would
// have produced. -incremental re-runs only scenarios whose identity
// changed since a prior bisect (or campaign) artifact, splicing its
// campaign for the rest. Every path simulates only the lattice points of
// a cell whose extra fixes could change the run and copies the rest,
// unless -no-fork or -explain.
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
//	-horizon s       per-scenario virtual-time bound in seconds (default
//	                 per preset)
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
//	                 -trace-out exports gain decision/episode tracks
//	-no-fork         simulate every lattice point as its own job instead
//	                 of copying the points whose extra fixes never fired
//	                 (the reference for checking that collapse: both
//	                 paths must produce byte-identical artifacts)
//	-q               suppress the verdict summary and the end-of-run line
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

	"repro/internal/bisect"
	"repro/internal/campaign"
	"repro/internal/cli"
)

func main() {
	f := cli.Register("bisect", cli.Shards|cli.Preset)
	noFork := flag.Bool("no-fork", false, "simulate every lattice point as its own job (no collapse of provably equal points)")
	f.Parse("")
	o, ok := bisect.OptionsByName(f.Preset)
	if !ok {
		f.Usagef("unknown preset %q (want smoke, default or full)", f.Preset)
	}
	opts := f.RunnerOpts(o.RunnerOpts())
	opts.NoFork = *noFork
	cli.Run(f, cli.Sweep[*bisect.Report]{
		Analyze:  func(c *campaign.Campaign) (*bisect.Report, error) { return bisect.Analyze(c, o) },
		Decode:   bisect.Decode,
		Campaign: func(r *bisect.Report) *campaign.Campaign { return r.Campaign },
	}, f.Matrix(o.Matrix(), "", "").Scenarios(), opts)
}
