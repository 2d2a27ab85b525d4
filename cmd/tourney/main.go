// Command tourney runs scheduler-policy tournaments: every registered
// policy in the lineup runs every (topology, workload, seed) cell of
// the matrix through the campaign worker pool, and the analyzer names
// the per-cell winner circles on four axes — makespan, p99 wakeup
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
//	-horizon s       per-scenario virtual-time bound in seconds
//	-verdict-tol pct verdict winner-circle tolerance percent (default 5,
//	                 plus a 100µs absolute slack on the p99-wake axis)
//	-streak-k n      wakeup-streak threshold (default 4)
//	-out file        write the JSON artifact here ("-" for stdout)
//	-baseline file   compare the artifact's bytes with a previous tourney
//	                 artifact; exit 3 when they differ, with a report of
//	                 the scenarios, metrics and policy verdicts that moved
//	-diff-out file   also write the -baseline report to this file
//	-list            print registered policies, topologies and workloads
//	-q               suppress the verdict summary and the end-of-run line
//
// Exit codes: 0 on success, 1 on runtime/IO errors (including an
// unreadable baseline), 2 on usage errors, 3 when the artifact differs
// from -baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/tourney"
)

// exitRegression is the dedicated exit code for an artifact that differs
// from -baseline, distinct from runtime errors (1) and usage errors (2).
const exitRegression = 3

func main() {
	var (
		preset     = flag.String("preset", "default", "tournament preset: smoke, default, full")
		policies   = flag.String("policies", "", "comma-separated policy lineup overrides")
		topos      = flag.String("topos", "", "comma-separated topology overrides")
		loads      = flag.String("loads", "", "comma-separated workload overrides")
		seeds      = flag.String("seeds", "", "comma-separated workload seed overrides")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		baseSeed   = flag.Int64("seed", 42, "campaign base seed")
		scale      = flag.Float64("scale", 0, "workload scale factor (0 = preset default)")
		horizon    = flag.Float64("horizon", 0, "per-scenario horizon in virtual seconds (0 = preset default)")
		verdictTol = flag.Float64("verdict-tol", 0, "verdict winner-circle tolerance percent (0 = default 5)")
		streakK    = flag.Int("streak-k", 0, "wakeup-streak threshold (0 = default 4)")
		out        = flag.String("out", "", "write JSON artifact to this file (\"-\" for stdout)")
		baseline   = flag.String("baseline", "", "exit 3 when the artifact's bytes differ from this tourney artifact's")
		diffOut    = flag.String("diff-out", "", "write the baseline report to this file")
		list       = flag.Bool("list", false, "print registered policies, topologies and workloads")
		quiet      = flag.Bool("q", false, "suppress the verdict summary and the end-of-run line")
	)
	flag.Parse()

	if *list {
		fmt.Printf("policies:   %s\n", campaign.ConfigNames())
		fmt.Printf("topologies: %s\n", campaign.TopologyNames())
		fmt.Printf("workloads:  %s (plus nas:<app>, nas-pin:<app>, nas-hotplug:<app>, serve:<qps>)\n",
			campaign.WorkloadNames())
		return
	}
	if flag.NArg() > 0 {
		usagef("unexpected arguments %q", flag.Args())
	}
	if *streakK < 0 {
		usagef("-streak-k must be >= 0 (0 = default)")
	}
	o, ok := tourney.OptionsByName(*preset)
	if !ok {
		usagef("unknown preset %q (want smoke, default or full)", *preset)
	}
	if err := applyOverrides(&o, *policies, *topos, *loads, *seeds); err != nil {
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
	if *verdictTol > 0 {
		o.TolerancePct = *verdictTol
	}
	o.StreakK = *streakK

	start := time.Now()
	fmt.Fprintf(os.Stderr, "tourney: running %d scenarios (%d cells x %d policies, base seed %d, scale %g)\n",
		o.Matrix().Size(), o.Matrix().Size()/len(o.Policies), len(o.Policies), o.BaseSeed, o.Scale)
	r, err := tourney.Run(o)
	if err != nil {
		fatalf("%v", err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "tourney: ran %d scenarios in %.2fs\n", o.Matrix().Size(), time.Since(start).Seconds())
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
		fmt.Fprintf(os.Stderr, "tourney: wrote %s (%d bytes)\n", *out, len(data))
	}
	if *baseline != "" {
		compareBaseline(r, data, *baseline, *diffOut)
	}
}

// compareBaseline gates the run on its artifact's bytes equalling the
// baseline's. The report adds the policy verdicts that changed
// (winner circles and cell sets) to the campaign-level explanation.
func compareBaseline(r *tourney.Report, data []byte, path, diffOut string) {
	baseData, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	base, err := tourney.Decode(baseData)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	var verdicts string
	if diffs := tourney.CompareVerdicts(base, r); len(diffs) == 0 {
		verdicts = "policy verdicts: unchanged\n"
	} else {
		verdicts = fmt.Sprintf("policy verdicts: %d changed\n", len(diffs))
		for _, d := range diffs {
			verdicts += "  " + d + "\n"
		}
	}
	report, differs := campaign.BaselineReport(path, baseData, data, base.Campaign, r.Campaign, verdicts)
	fmt.Print(report)
	if diffOut != "" {
		if err := os.WriteFile(diffOut, []byte(report), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if differs {
		os.Exit(exitRegression)
	}
}

// applyOverrides swaps tournament dimensions for the ones named on the
// command line.
func applyOverrides(o *tourney.Options, policies, topos, loads, seeds string) error {
	if policies != "" {
		o.Policies = o.Policies[:0]
		for _, name := range splitCSV(policies) {
			p, ok := campaign.ConfigByName(name)
			if !ok {
				return fmt.Errorf("unknown policy %q (have: %s)", name, campaign.ConfigNames())
			}
			o.Policies = append(o.Policies, p)
		}
		if len(o.Policies) < 2 {
			return fmt.Errorf("a tournament needs at least two policies, got %d", len(o.Policies))
		}
	}
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
	msg = strings.TrimPrefix(msg, "tourney: ")
	fmt.Fprintf(os.Stderr, "tourney: %s\n", msg)
	os.Exit(1)
}

// usagef reports a bad invocation (exit 2, like flag parse errors), as
// opposed to runtime failures (exit 1) and baseline differences (3).
func usagef(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	msg = strings.TrimPrefix(msg, "tourney: ")
	fmt.Fprintf(os.Stderr, "tourney: %s\n", msg)
	os.Exit(2)
}
