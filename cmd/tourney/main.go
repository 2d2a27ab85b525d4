// Command tourney runs scheduler-policy tournaments: every registered
// policy in the lineup runs every (topology, workload, seed) cell of
// the matrix through the campaign worker pool, and the analyzer names
// the per-cell winner circles (every policy within 5% of the best, plus
// 100µs on p99 wakeup latency) on four axes — makespan, p99 wakeup
// latency, wakeup streaks, migrations — plus the non-monotone policy
// pairs where neither side dominates across cells.
//
// Where bisect sweeps the 2^4 fix lattice, tourney sweeps the policy
// registry: the lattice's endpoints (bugs, fixed), the power-saving
// and modular-redesign variants, both global-queue designs, and the
// placement-axis variants, all through one campaign. Engine seeds
// derive from the cell key with the policy excluded, so every policy
// in a cell faces the same workload jitter stream.
//
// Usage:
//
//	tourney [flags]
//
// Examples:
//
//	tourney -preset smoke -out tourney.json
//	tourney -preset default -workers 8
//	tourney -policies bugs,fixed,globalq-shared -topos bulldozer8
//	tourney -preset smoke -baseline baselines/tourney-smoke.json
//	tourney -list
//
// Flags:
//
//	-preset name     tournament preset: smoke (18 scenarios), default, full
//	-policies csv    override the policy lineup (at least two; see -list)
//	-topos csv       override topologies
//	-loads csv       override workloads
//	-seeds csv       override workload seeds
//	-workers n       worker pool size (default GOMAXPROCS)
//	-seed n          campaign base seed (default 42)
//	-scale f         workload scale factor (default per preset)
//	-horizon s       per-scenario virtual-time bound in seconds (default
//	                 per preset)
//	-streak-k n      wakeup-streak threshold (default 4)
//	-out file        write the JSON artifact here ("-" for stdout)
//	-baseline file   compare the artifact's bytes with a previous tourney
//	                 artifact; exit 3 when they differ, with a report of
//	                 the scenarios, metrics and policy verdicts that moved
//	-diff-out file   also write the -baseline report to this file
//	-list            print every topology, workload and policy name the
//	                 overrides accept (with the family patterns) and exit
//	-q               suppress the verdict summary and the end-of-run line
//
// A negative or non-finite number, or a dimension entry given twice, is
// a usage error. Ctrl-C or SIGTERM drains the in-flight scenarios and
// exits 1 without writing anything.
//
// Exit codes: 0 on success, 1 on runtime/IO errors (including an
// unreadable baseline), 2 on usage errors, 3 when the artifact differs
// from -baseline.
package main

import (
	"flag"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/tourney"
)

func main() {
	f := cli.Register("tourney", cli.Preset|cli.List)
	policies := flag.String("policies", "", "comma-separated policy lineup overrides")
	f.Parse("policies")
	o, ok := tourney.OptionsByName(f.Preset)
	if !ok {
		f.Usagef("unknown preset %q (want smoke, default or full)", f.Preset)
	}
	m := f.Matrix(o.Matrix(), "policy", *policies)
	if o.Policies = m.Configs; len(o.Policies) < 2 {
		f.Usagef("a tournament needs at least two policies, got %d", len(o.Policies))
	}
	cli.Run(f, cli.Sweep[*tourney.Report]{
		Analyze:  func(c *campaign.Campaign) (*tourney.Report, error) { return tourney.Analyze(c, o) },
		Decode:   tourney.Decode,
		Campaign: func(r *tourney.Report) *campaign.Campaign { return r.Campaign },
		Verdicts: verdicts,
	}, m.Scenarios(), f.RunnerOpts(o.RunnerOpts()))
}

// verdicts lists the policy verdicts (winner circles and cell sets)
// that changed, for the -baseline report.
func verdicts(base, cur *tourney.Report) string {
	diffs := tourney.CompareVerdicts(base, cur)
	if len(diffs) == 0 {
		return "policy verdicts: unchanged\n"
	}
	s := fmt.Sprintf("policy verdicts: %d changed\n", len(diffs))
	for _, d := range diffs {
		s += "  " + d + "\n"
	}
	return s
}
