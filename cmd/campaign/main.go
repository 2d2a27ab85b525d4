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
//	-scale f         workload scale factor (default 1.0)
//	-horizon s       per-scenario virtual-time bound in seconds (default 200)
//	-streak-k n      wakeup-streak threshold: n consecutive wakeups on busy
//	                 cores while an allowed core idles form a witnessed
//	                 streak (default 4; stamped into the artifact)
//	-trace           capture violation-window traces
//	-explain         record decision provenance and counterfactually replay
//	                 each confirmed episode under every single fix (stamped
//	                 into the artifact; also annotates -trace-out exports
//	                 with provenance and episode tracks)
//	-metrics         sample scheduler/machine metrics in virtual time into
//	                 per-result snapshots (stamped into the artifact)
//	-metrics-cadence-ms f  metrics sampling interval in virtual ms (default 10)
//	-trace-out file  export one scenario as Chrome trace-event / Perfetto
//	                 JSON (a deterministic side run — the artifact is
//	                 unaffected); open the file at ui.perfetto.dev
//	-trace-key key   scenario to export (default: first key)
//	-out file        write the JSON artifact here ("-" for stdout)
//	-baseline file   compare the artifact's bytes with a previous artifact;
//	                 exit 3 when they differ, with a report of why
//	-diff-out file   also write the -baseline report to this file
//	-q               suppress the summary table and the end-of-run line
//	-list            print builtin topologies/workloads/configs and exit
//
// Exit codes: 0 on success, 1 on runtime/IO errors (including an
// unreadable baseline), 2 on usage errors, 3 when the artifact differs
// from -baseline — so CI can distinguish "the scheduler model changed"
// from "the invocation is broken".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/shard"
	"repro/internal/sim"
)

// exitRegression is the dedicated exit code for an artifact that differs
// from -baseline, distinct from runtime errors (1) and usage errors (2).
const exitRegression = 3

func main() {
	var (
		matrixName  = flag.String("matrix", "default", "preset matrix: default, smoke, full")
		topos       = flag.String("topos", "", "comma-separated topology overrides")
		loads       = flag.String("loads", "", "comma-separated workload overrides")
		configs     = flag.String("configs", "", "comma-separated config overrides")
		seeds       = flag.String("seeds", "", "comma-separated workload seed overrides")
		shardSpec   = flag.String("shard", "", "run only shard i of n (\"i/n\")")
		mergeMode   = flag.Bool("merge", false, "merge shard artifacts (positional args) instead of running")
		incremental = flag.String("incremental", "", "prior artifact: execute only new/changed scenarios")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		baseSeed    = flag.Int64("seed", 42, "campaign base seed")
		scale       = flag.Float64("scale", 0, "workload scale factor (0 = preset default)")
		horizon     = flag.Float64("horizon", 200, "per-scenario horizon in virtual seconds")
		streakK     = flag.Int("streak-k", 0, "wakeup-streak threshold (0 = default 4)")
		traceOn     = flag.Bool("trace", false, "capture violation-window traces")
		explainOn   = flag.Bool("explain", false, "record decision provenance and replay episodes counterfactually")
		metricsOn   = flag.Bool("metrics", false, "sample virtual-time metrics into per-result snapshots")
		cadenceMs   = flag.Float64("metrics-cadence-ms", 0, "metrics sampling interval in virtual ms (0 = 10)")
		traceOut    = flag.String("trace-out", "", "export one scenario as Perfetto JSON to this file")
		traceKey    = flag.String("trace-key", "", "scenario key to export with -trace-out (default: first)")
		out         = flag.String("out", "", "write JSON artifact to this file (\"-\" for stdout)")
		baseline    = flag.String("baseline", "", "exit 3 when the artifact's bytes differ from this artifact's")
		diffOut     = flag.String("diff-out", "", "write the baseline report to this file")
		quiet       = flag.Bool("q", false, "suppress the summary table and the end-of-run line")
		list        = flag.Bool("list", false, "list builtin dimensions and exit")
	)
	flag.Parse()

	if *streakK < 0 {
		usagef("-streak-k must be >= 0 (0 = default)")
	}
	if *list {
		fmt.Printf("topologies: %s\nworkloads:  %s (plus any nas:<app>)\nconfigs:    %s\nmatrices:   default, smoke, full\n",
			campaign.TopologyNames(), campaign.WorkloadNames(), campaign.ConfigNames())
		return
	}

	start := time.Now()
	var c *campaign.Campaign
	if *mergeMode {
		if *shardSpec != "" || *incremental != "" {
			usagef("-merge does not combine with -shard or -incremental")
		}
		if *traceOut != "" {
			usagef("-trace-out needs a scenario matrix; it does not combine with -merge")
		}
		if flag.NArg() == 0 {
			usagef("-merge needs shard artifact files as arguments")
		}
		merged, err := shard.MergeFiles(flag.Args()...)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "campaign: merged %d shard artifacts into %d scenarios\n",
			flag.NArg(), len(merged.Results))
		c = merged
	} else {
		if flag.NArg() > 0 {
			usagef("unexpected arguments %q (artifact files only follow -merge)", flag.Args())
		}
		m, ok := campaign.MatrixByName(*matrixName)
		if !ok {
			usagef("unknown matrix preset %q (want default, smoke or full)", *matrixName)
		}
		if err := applyOverrides(&m, *topos, *loads, *configs, *seeds); err != nil {
			usagef("%v", err)
		}
		if *scale > 0 {
			m.Scale = *scale
		}
		if m.Scale == 0 {
			m.Scale = 1
		}
		m.Horizon = sim.Time(*horizon * float64(sim.Second))

		scenarios := m.Scenarios()
		if *shardSpec != "" {
			sp, err := shard.ParseSpec(*shardSpec)
			if err != nil {
				usagef("%v", err)
			}
			scenarios, err = sp.Select(scenarios)
			if err != nil {
				// A spec that parses but cannot partition this matrix
				// (index out of range for it, duplicate keys) is still a
				// bad invocation, not a runtime failure.
				usagef("%v", err)
			}
			fmt.Fprintf(os.Stderr, "campaign: shard %s holds %d of %d scenarios\n",
				sp, len(scenarios), m.Size())
		}
		opts := campaign.RunnerOpts{
			Workers:        *workers,
			BaseSeed:       *baseSeed,
			Trace:          *traceOn,
			StreakK:        *streakK,
			Metrics:        *metricsOn,
			MetricsCadence: sim.Time(*cadenceMs * float64(sim.Millisecond)),
			Explain:        *explainOn,
		}

		// Ctrl-C / SIGTERM cancels the run: the worker pool stops feeding
		// scenarios, drains the in-flight ones, and campaign exits 1
		// without writing a partial artifact.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		runFatalf := func(err error) {
			if ctx.Err() != nil {
				fatalf("interrupted: in-flight scenarios drained, no artifact written")
			}
			fatalf("%v", err)
		}

		ran := len(scenarios)
		if *incremental != "" {
			prior, err := campaign.Load(*incremental)
			if err != nil {
				fatalf("%v", err)
			}
			diff := shard.Plan(scenarios, prior, opts)
			fmt.Fprintf(os.Stderr, "campaign: incremental vs %s: %s\n", *incremental, diff.Summary())
			spliced, err := diff.ExecuteCtx(ctx, opts)
			if err != nil {
				runFatalf(err)
			}
			c, ran = spliced, len(diff.ToRun)
		} else {
			fmt.Fprintf(os.Stderr, "campaign: running %d scenarios on %d workers (base seed %d, scale %g)\n",
				len(scenarios), effectiveWorkers(*workers), *baseSeed, m.Scale)
			run, err := campaign.RunScenariosCtx(ctx, scenarios, opts)
			if err != nil {
				runFatalf(err)
			}
			c = run
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "campaign: ran %d scenarios in %.2fs\n", ran, time.Since(start).Seconds())
		}

		if *traceOut != "" {
			sc, err := campaign.SelectExportScenario(scenarios, *traceKey)
			if err != nil {
				fatalf("%v", err)
			}
			f, err := os.Create(*traceOut)
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
			fmt.Fprintf(os.Stderr, "campaign: wrote Perfetto trace %s (scenario %s, %d events) — open at ui.perfetto.dev\n",
				*traceOut, exp.Key, exp.Events)
			if exp.Dropped > 0 {
				fmt.Fprintf(os.Stderr, "campaign: warning: trace dropped %d events (capture buffer full); timeline has gaps\n",
					exp.Dropped)
			}
		}
	}

	if !*quiet {
		// Keep stdout clean for the artifact when it goes there too.
		if *out == "-" {
			fmt.Fprint(os.Stderr, c.FormatSummary())
		} else {
			fmt.Print(c.FormatSummary())
		}
	}
	if *out == "" && *baseline == "" {
		return
	}
	data, err := c.EncodeJSON()
	if err != nil {
		fatalf("%v", err)
	}
	if *out == "-" {
		os.Stdout.Write(data)
	} else if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "campaign: wrote %s (%d bytes)\n", *out, len(data))
	}
	if *baseline != "" {
		baseData, err := os.ReadFile(*baseline)
		if err != nil {
			fatalf("%v", err)
		}
		base, err := campaign.Decode(baseData)
		if err != nil {
			fatalf("%s: %v", *baseline, err)
		}
		report, differs := campaign.BaselineReport(*baseline, baseData, data, base, c, "")
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

// applyOverrides swaps matrix dimensions for the ones named on the
// command line.
func applyOverrides(m *campaign.Matrix, topos, loads, configs, seeds string) error {
	if topos != "" {
		m.Topologies = m.Topologies[:0]
		for _, name := range splitCSV(topos) {
			t, ok := campaign.TopologyByName(name)
			if !ok {
				return fmt.Errorf("unknown topology %q (have: %s)", name, campaign.TopologyNames())
			}
			m.Topologies = append(m.Topologies, t)
		}
	}
	if loads != "" {
		m.Workloads = m.Workloads[:0]
		for _, name := range splitCSV(loads) {
			w, ok := campaign.WorkloadByName(name)
			if !ok {
				return fmt.Errorf("unknown workload %q (have: %s, plus nas:<app>)", name, campaign.WorkloadNames())
			}
			m.Workloads = append(m.Workloads, w)
		}
	}
	if configs != "" {
		m.Configs = m.Configs[:0]
		for _, name := range splitCSV(configs) {
			c, ok := campaign.ConfigByName(name)
			if !ok {
				return fmt.Errorf("unknown config %q (have: %s)", name, campaign.ConfigNames())
			}
			m.Configs = append(m.Configs, c)
		}
	}
	if seeds != "" {
		m.Seeds = m.Seeds[:0]
		for _, s := range splitCSV(seeds) {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed %q: %v", s, err)
			}
			m.Seeds = append(m.Seeds, n)
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

func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

func fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	// Library errors already carry the package prefix.
	msg = strings.TrimPrefix(msg, "campaign: ")
	fmt.Fprintf(os.Stderr, "campaign: %s\n", msg)
	os.Exit(1)
}

// usagef reports a bad invocation (exit 2, like flag parse errors), as
// opposed to runtime failures (exit 1) and baseline differences (3).
func usagef(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	msg = strings.TrimPrefix(msg, "campaign: ")
	fmt.Fprintf(os.Stderr, "campaign: %s\n", msg)
	os.Exit(2)
}
