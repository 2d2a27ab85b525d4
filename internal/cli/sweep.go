package cli

import (
	"context"
	"flag"
	"fmt"
	"math"
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

// Group selects optional shared flags.
type Group uint

const (
	// Shards adds -shard, -merge, -incremental, -explain, -trace-out and
	// -trace-key.
	Shards Group = 1 << iota
	// Preset adds -preset.
	Preset
	// List adds -list.
	List
)

// Flags is the shared flag set of one sweep command.
type Flags struct {
	Cmd
	// Preset is the -preset value.
	Preset string

	topos, loads, seeds    string
	scale, horizon         float64
	workers, streakK       int
	seed                   int64
	out, baseline, diffOut string
	quiet, list            bool
	shard, incremental     string
	merge, explain         bool
	traceOut, traceKey     string
}

// Register defines the shared flags on flag.CommandLine: the twelve
// every sweep command has, plus the groups it asks for. The command
// then defines its own flags and calls Parse.
func Register(name string, groups Group) *Flags {
	f := &Flags{Cmd: Cmd(name)}
	flag.StringVar(&f.topos, "topos", "", "comma-separated topology overrides")
	flag.StringVar(&f.loads, "loads", "", "comma-separated workload overrides")
	flag.StringVar(&f.seeds, "seeds", "", "comma-separated workload seed overrides")
	flag.Var(number[float64]{&f.scale}, "scale", "workload scale `factor` (0 = preset default)")
	flag.Var(number[float64]{&f.horizon}, "horizon", "per-scenario horizon in virtual `seconds` (0 = preset default)")
	flag.Var(number[int]{&f.workers}, "workers", "worker pool size `n` (0 = GOMAXPROCS)")
	flag.Int64Var(&f.seed, "seed", 42, "campaign base seed")
	flag.Var(number[int]{&f.streakK}, "streak-k", "wakeup-streak threshold `n` (0 = default 4)")
	flag.StringVar(&f.out, "out", "", "write the JSON artifact to this file (\"-\" for stdout)")
	flag.StringVar(&f.baseline, "baseline", "", "exit 3 when the artifact's bytes differ from this artifact's")
	flag.StringVar(&f.diffOut, "diff-out", "", "write the baseline report to this file")
	flag.BoolVar(&f.quiet, "q", false, "suppress the summary and the end-of-run line")
	if groups&Shards != 0 {
		flag.StringVar(&f.shard, "shard", "", "run only shard i of n (\"i/n\"); writes a campaign artifact")
		flag.BoolVar(&f.merge, "merge", false, "merge shard artifacts (positional args) instead of running")
		flag.StringVar(&f.incremental, "incremental", "", "prior artifact: execute only new/changed scenarios")
		flag.BoolVar(&f.explain, "explain", false, "record decision provenance and replay episodes counterfactually")
		flag.StringVar(&f.traceOut, "trace-out", "", "export one scenario as Perfetto JSON to this file")
		flag.StringVar(&f.traceKey, "trace-key", "", "scenario key to export with -trace-out (default: first)")
	}
	if groups&Preset != 0 {
		flag.StringVar(&f.Preset, "preset", "default", "preset: smoke, default, full")
	}
	if groups&List != 0 {
		flag.BoolVar(&f.list, "list", false, "list what the dimension flags accept and exit")
	}
	return f
}

// Parse parses the command line. With -list it prints every name the
// dimension flags accept, labelling the config dimension configs
// ("configs", "policies"), and exits.
func (f *Flags) Parse(configs string) {
	flag.Parse()
	if f.list {
		fmt.Printf("%-12s%s\n%-12s%s\n%-12s%s\n%-12s%s\n",
			"topologies:", campaign.TopologyNames(),
			"workloads:", campaign.WorkloadNames(),
			configs+":", campaign.ConfigNames(),
			"presets:", "default, smoke, full")
		os.Exit(0)
	}
}

// Matrix returns m with the dimension overrides, -scale and -horizon
// applied. configs is the value of the command's config-dimension flag
// (-configs, -policies; "" for none) and noun names one of its entries.
// An unknown name, a bad seed or an entry given twice exits ExitUsage.
func (f *Flags) Matrix(m campaign.Matrix, noun, configs string) campaign.Matrix {
	if err := f.overrides(&m, noun, configs); err != nil {
		f.Usagef("%v", err)
	}
	if f.scale > 0 {
		m.Scale = f.scale
	}
	if f.horizon > 0 {
		m.Horizon = f.VirtualTime("horizon", f.horizon, sim.Second)
	}
	return m
}

// overrides is Matrix's parser of -topos, -loads, -seeds and configs.
func (f *Flags) overrides(m *campaign.Matrix, noun, configs string) error {
	for _, err := range []error{
		override(&m.Topologies, f.topos, "topology", campaign.TopologyNames(), campaign.TopologyByName,
			func(t campaign.TopologySpec) string { return t.Name }),
		override(&m.Workloads, f.loads, "workload", campaign.WorkloadNames(), campaign.WorkloadByName,
			func(w campaign.Workload) string { return w.Name }),
		override(&m.Configs, configs, noun, campaign.ConfigNames(), campaign.ConfigByName,
			func(c campaign.ConfigSpec) string { return c.Name }),
		override(&m.Seeds, f.seeds, "seed", "", func(s string) (int64, bool) {
			n, err := strconv.ParseInt(s, 10, 64)
			return n, err == nil
		}, func(n int64) string { return strconv.FormatInt(n, 10) }),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// override replaces *dim with the entries csv names, unless csv is
// empty. Each entry must resolve (have lists what does; "" means the
// entry is malformed, not unknown), and no two may resolve to one name:
// a repeated entry would repeat every scenario key it spans.
func override[T any](dim *[]T, csv, noun, have string, lookup func(string) (T, bool), name func(T) string) error {
	if csv == "" {
		return nil
	}
	*dim = nil
	seen := map[string]bool{}
	for _, s := range splitCSV(csv) {
		v, ok := lookup(s)
		switch {
		case !ok && have == "":
			return fmt.Errorf("bad %s %q", noun, s)
		case !ok:
			return fmt.Errorf("unknown %s %q (have: %s)", noun, s, have)
		case seen[name(v)]:
			return fmt.Errorf("%s %s is given twice", noun, name(v))
		}
		seen[name(v)] = true
		*dim = append(*dim, v)
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

// VirtualTime converts the value v of flag -name, in units of unit, to
// virtual time. A value the virtual clock cannot hold exits ExitUsage.
func (f *Flags) VirtualTime(name string, v float64, unit sim.Time) sim.Time {
	t := v * float64(unit)
	if t >= math.MaxInt64 {
		f.Usagef("-%s %g overflows the virtual clock", name, v)
	}
	return sim.Time(t)
}

// RunnerOpts returns opts with the shared runner flags applied: -workers,
// -seed, -streak-k and -explain.
func (f *Flags) RunnerOpts(opts campaign.RunnerOpts) campaign.RunnerOpts {
	opts.Workers, opts.BaseSeed, opts.StreakK, opts.Explain = f.workers, f.seed, f.streakK, f.explain
	return opts
}

// Artifact is what a sweep command writes.
type Artifact interface {
	FormatSummary() string
	EncodeJSON() ([]byte, error)
}

// Sweep describes a command's artifact type A to Run.
type Sweep[A Artifact] struct {
	// Analyze makes the artifact of a complete campaign.
	Analyze func(*campaign.Campaign) (A, error)
	// Decode reads the bytes of an artifact of this command.
	Decode func([]byte) (A, error)
	// Campaign returns the campaign an artifact carries.
	Campaign func(A) *campaign.Campaign
	// Verdicts, when non-nil, adds the command's own lines to a
	// -baseline report comparing base with cur.
	Verdicts func(base, cur A) string
}

// CampaignSweep is the sweep whose artifact is the campaign itself:
// cmd/campaign's, and every -shard run's.
var CampaignSweep = Sweep[*campaign.Campaign]{
	Analyze:  func(c *campaign.Campaign) (*campaign.Campaign, error) { return c, nil },
	Decode:   campaign.Decode,
	Campaign: func(c *campaign.Campaign) *campaign.Campaign { return c },
}

// Run is the one run path of the sweep commands. Over scenarios and
// under opts it runs the mode the flags select: -merge of shard
// artifacts, -shard i/n, -incremental against a prior artifact, or a
// plain run. It then exports -trace-out, and writes the artifact and
// the -baseline verdict. A shard writes a campaign artifact, whatever
// the command: analysis needs the whole sweep, which only -merge
// restores. Run exits on any failure.
func Run[A Artifact](f *Flags, sw Sweep[A], scenarios []campaign.Scenario, opts campaign.RunnerOpts) {
	switch {
	case f.merge && (f.shard != "" || f.incremental != ""):
		f.Usagef("-merge does not combine with -shard or -incremental")
	case f.merge && flag.NArg() == 0:
		f.Usagef("-merge needs shard artifact files as arguments")
	case !f.merge && flag.NArg() > 0:
		f.Usagef("unexpected arguments %q", flag.Args())
	}
	run := scenarios
	if f.shard != "" {
		sp, err := shard.ParseSpec(f.shard)
		if err == nil {
			// A spec that parses but cannot partition these scenarios
			// is still a bad invocation, not a runtime failure.
			run, err = sp.Select(scenarios)
		}
		if err != nil {
			f.Usagef("%v", err)
		}
		f.logf("shard %s holds %d of %d scenarios", sp, len(run), len(scenarios))
	}

	var c *campaign.Campaign
	if f.merge {
		parts := make([]*campaign.Campaign, 0, flag.NArg())
		for _, path := range flag.Args() {
			parts = append(parts, load(f, sw, path))
		}
		merged, err := shard.Merge(parts...)
		if err != nil {
			f.Fatalf("%v", err)
		}
		f.logf("merged %d shard artifacts into %d scenarios", len(parts), len(merged.Results))
		c = merged
	} else {
		c = execute(f, sw, run, opts)
	}
	f.exportTrace(scenarios, opts)

	if f.shard != "" {
		write(f, CampaignSweep, c, c)
		return
	}
	a, err := sw.Analyze(c)
	if err != nil {
		f.Fatalf("%v", err)
	}
	write(f, sw, a, c)
}

// execute runs the scenarios, or with -incremental only those whose
// identity changed since the prior artifact.
func execute[A Artifact](f *Flags, sw Sweep[A], run []campaign.Scenario, opts campaign.RunnerOpts) *campaign.Campaign {
	// Ctrl-C / SIGTERM cancels the run: the pool stops starting jobs,
	// drains the in-flight ones, and the command exits 1 without writing
	// anything.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	var c *campaign.Campaign
	var err error
	ran := len(run)
	if f.incremental != "" {
		diff := shard.Plan(run, load(f, sw, f.incremental), opts)
		f.logf("incremental vs %s: %s", f.incremental, diff.Summary())
		c, err = diff.ExecuteCtx(ctx, opts)
		ran = len(diff.ToRun)
	} else {
		workers, scale := opts.Workers, 0.0
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if len(run) > 0 {
			scale = run[0].Scale
		}
		f.logf("running %d scenarios on %d workers (base seed %d, scale %g)", len(run), workers, opts.BaseSeed, scale)
		c, err = campaign.RunScenariosCtx(ctx, run, opts)
	}
	if err != nil {
		if ctx.Err() != nil {
			f.Fatalf("interrupted: in-flight scenarios drained, no artifact written")
		}
		f.Fatalf("%v", err)
	}
	if !f.quiet {
		f.logf("ran %d scenarios in %.2fs", ran, time.Since(start).Seconds())
	}
	return c
}

// load reads a prior or shard artifact: one of the command's own, or a
// campaign artifact. The command's own type is tried first, since a
// bisect or tourney report also parses as an empty campaign artifact.
func load[A Artifact](f *Flags, sw Sweep[A], path string) *campaign.Campaign {
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatalf("%v", err)
	}
	if a, err := sw.Decode(data); err == nil {
		return sw.Campaign(a)
	}
	c, err := campaign.Decode(data)
	if err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	return c
}

// exportTrace writes -trace-out: one scenario of the sweep as Perfetto
// JSON, a deterministic side run that leaves the artifact untouched.
func (f *Flags) exportTrace(scenarios []campaign.Scenario, opts campaign.RunnerOpts) {
	if f.traceOut == "" {
		return
	}
	sc, err := campaign.SelectExportScenario(scenarios, f.traceKey)
	if err != nil {
		f.Fatalf("%v", err)
	}
	file, err := os.Create(f.traceOut)
	if err != nil {
		f.Fatalf("%v", err)
	}
	exp, err := campaign.ExportPerfetto(sc, opts, file)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		f.Fatalf("%v", err)
	}
	f.logf("wrote Perfetto trace %s (scenario %s, %d events) — open at ui.perfetto.dev", f.traceOut, exp.Key, exp.Events)
	if exp.Dropped > 0 {
		f.logf("warning: trace dropped %d events (capture buffer full); timeline has gaps", exp.Dropped)
	}
}

// write prints the summary, writes -out, and gives the -baseline
// verdict: the report on stdout and in -diff-out, and ExitRegression
// when the artifact's bytes differ from the baseline's. c is the
// campaign a carries.
func write[A Artifact](f *Flags, sw Sweep[A], a A, c *campaign.Campaign) {
	if !f.quiet {
		// Keep stdout clean for the artifact when it goes there too.
		w := os.Stdout
		if f.out == "-" {
			w = os.Stderr
		}
		fmt.Fprint(w, a.FormatSummary())
	}
	if f.out == "" && f.baseline == "" {
		return
	}
	data, err := a.EncodeJSON()
	if err != nil {
		f.Fatalf("%v", err)
	}
	switch f.out {
	case "":
	case "-":
		os.Stdout.Write(data)
	default:
		if err := os.WriteFile(f.out, data, 0o644); err != nil {
			f.Fatalf("%v", err)
		}
		f.logf("wrote %s (%d bytes)", f.out, len(data))
	}
	if f.baseline == "" {
		return
	}
	baseData, err := os.ReadFile(f.baseline)
	if err != nil {
		f.Fatalf("%v", err)
	}
	base, err := sw.Decode(baseData)
	if err != nil {
		f.Fatalf("%s: %v", f.baseline, err)
	}
	var extra string
	if sw.Verdicts != nil {
		extra = sw.Verdicts(base, a)
	}
	report, differs := campaign.BaselineReport(f.baseline, baseData, data, sw.Campaign(base), c, extra)
	fmt.Print(report)
	if f.diffOut != "" {
		if err := os.WriteFile(f.diffOut, []byte(report), 0o644); err != nil {
			f.Fatalf("%v", err)
		}
	}
	if differs {
		os.Exit(ExitRegression)
	}
}
