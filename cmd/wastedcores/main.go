// Command wastedcores regenerates every table and figure of "The Linux
// Scheduler: a Decade of Wasted Cores" (EuroSys 2016) on the simulated
// machine.
//
// Usage:
//
//	wastedcores [flags] <experiment>...
//
// Experiments: table1 table2 table3 table4 table5 attribution fig1 fig2
// fig3 fig4 fig5 check scaling all
//
// Flags:
//
//	-scale f   workload scale factor (0 = 1, paper scale; smaller is faster)
//	-seed n    deterministic seed (default 42)
//	-svg dir   also write heatmaps as SVG files into dir
//
// Exit codes: 0 on success, 1 when an experiment fails, 2 on usage
// errors — a negative or non-finite -scale, or an unknown experiment —
// before any experiment runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/checker"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/globalq"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/viz"
	"repro/internal/workload"
)

// names lists the experiments in the order "all" runs them.
var names = []string{"table5", "fig4", "fig1", "table1", "table2",
	"table3", "table4", "attribution", "fig2", "fig3", "fig5", "check", "scaling"}

func main() {
	const cmd = cli.Cmd("wastedcores")
	scale := cli.Float("scale", "workload scale `factor` (0 = 1, paper scale)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	svgDir := flag.String("svg", "", "write heatmaps as SVG files into this directory")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(cli.ExitUsage)
	}
	for _, name := range args {
		if name != "all" && !slices.Contains(names, name) {
			cmd.Usagef("unknown experiment %q (want %s or all)", name, strings.Join(names, ", "))
		}
	}
	opts := experiments.Options{Seed: *seed, Scale: *scale}
	for _, name := range args {
		if name == "all" {
			runAll(opts, *svgDir)
			continue
		}
		if err := run(name, opts, *svgDir); err != nil {
			cmd.Fatalf("%v", err)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: wastedcores [flags] <experiment>...

experiments:
  table1   NAS with/without the Scheduling Group Construction bug
  table2   TPC-H under the Group Imbalance / Overload-on-Wakeup fixes
  table3   NAS with/without the Missing Scheduling Domains bug
  table4   summary of the four bugs with measured maximum impact
  table5   the simulated machine (paper's hardware table)
  attribution  minimal fix sets from the 2^4 lattice vs the paper's fixes
  fig1     scheduling-domain hierarchy of the 32-core machine
  fig2     Group Imbalance heatmaps (make + 2xR)
  fig3     Overload-on-Wakeup trace (TPC-H)
  fig4     the 8-node machine topology
  fig5     cores considered by core 0 after a hotplug cycle
  check    run the online sanity checker against a buggy machine
  scaling  shared vs per-core runqueue switch-overhead model (the §2.2 premise)
  all      everything above

flags:
`)
	flag.PrintDefaults()
}

func run(cmd string, opts experiments.Options, svgDir string) error {
	switch cmd {
	case "table1":
		fmt.Println(experiments.FormatTable1(experiments.Table1(opts)))
	case "table2":
		fmt.Println(experiments.FormatTable2(experiments.Table2(opts)))
	case "table3":
		fmt.Println(experiments.FormatTable3(experiments.Table3(opts)))
	case "table4":
		t1 := experiments.Table1(opts)
		t2 := experiments.Table2(opts)
		t3 := experiments.Table3(opts)
		lur := experiments.GroupImbalanceLU(opts)
		fmt.Println(experiments.FormatTable4(experiments.Table4(t1, t2, t3, lur)))
	case "table5":
		fmt.Println(experiments.Table5())
	case "attribution":
		rows, _, err := experiments.Attribution(opts)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAttribution(rows))
	case "fig1":
		fmt.Println(experiments.Fig1())
	case "fig2":
		res := experiments.Fig2(opts)
		fmt.Println("Figure 2a: runqueue sizes with the Group Imbalance bug")
		fmt.Print(res.BugSize.ASCII(2))
		fmt.Println("\nFigure 2b: runqueue loads with the bug")
		fmt.Print(res.BugLoad.ASCII(0))
		fmt.Println("\nFigure 2c: runqueue sizes with the fix")
		fmt.Print(res.FixSize.ASCII(2))
		fmt.Printf("\nmake completion: %v with bug, %v with fix (%.1f%% faster; paper: 13%%)\n",
			res.MakeBug, res.MakeFix, 100*(1-res.MakeFix.Seconds()/res.MakeBug.Seconds()))
		fmt.Printf("underloaded nodes with bug: %d (paper: 2)\n", res.IdleNodesObserved)
		if svgDir != "" {
			if err := writeSVG(svgDir, "fig2a.svg", res.BugSize); err != nil {
				return err
			}
			if err := writeSVG(svgDir, "fig2b.svg", res.BugLoad); err != nil {
				return err
			}
			if err := writeSVG(svgDir, "fig2c.svg", res.FixSize); err != nil {
				return err
			}
		}
	case "fig3":
		res := experiments.Fig3(opts)
		fmt.Println("Figure 3: runqueue sizes during TPC-H (Overload-on-Wakeup bug)")
		fmt.Print(res.Heat.ASCII(2))
		fmt.Printf("\nwakeups on busy cores: %d; on idle cores: %d; wasted core time: %v\n",
			res.WakeupsOnBusy, res.WakeupsOnIdle, res.WastedCoreTime)
		fmt.Print(res.Episodes)
		if svgDir != "" {
			if err := writeSVG(svgDir, "fig3.svg", res.Heat); err != nil {
				return err
			}
		}
	case "fig4":
		fmt.Println(experiments.Fig4())
	case "fig5":
		res := experiments.Fig5(opts)
		fmt.Println("Figure 5: cores considered by core 0, with the bug")
		fmt.Print(res.ChartBug)
		fmt.Println("\nwith the fix:")
		fmt.Print(res.ChartFix)
		fmt.Printf("\ncoverage: %d cores with bug (one node), %d with fix\n",
			res.CoverageBug, res.CoverageFix)
	case "check":
		runChecker(opts)
	case "scaling":
		// The §2.2 premise: why per-core runqueues exist at all.
		fmt.Println(globalq.ScalingTable([]int{2, 8, 16, 32, 64, 128}, 4, 20*sim.Millisecond))
	default:
		return fmt.Errorf("unknown experiment %q", cmd)
	}
	return nil
}

func runAll(opts experiments.Options, svgDir string) {
	for _, cmd := range names {
		fmt.Printf("==== %s ====\n\n", cmd)
		if err := run(cmd, opts, svgDir); err != nil {
			fmt.Fprintf(os.Stderr, "wastedcores: %s: %v\n", cmd, err)
		}
		fmt.Println()
	}
}

// runChecker demonstrates the §4.1 tool: a machine with the Missing
// Scheduling Domains bug, a pinned workload, and the sanity checker
// catching the long-term invariant violation — then profiling the
// load-balancing decisions to explain it.
func runChecker(opts experiments.Options) {
	topo := topology.Bulldozer8()
	m := machine.New(topo, sched.DefaultConfig(), opts.Seed)
	if err := m.DisableCore(63); err != nil {
		panic(err)
	}
	if err := m.EnableCore(63); err != nil {
		panic(err)
	}
	rec := trace.NewRecorder(1 << 18)
	m.SetRecorder(rec)
	c := checker.New(m.Sched, rec, checker.Config{S: 250 * sim.Millisecond})
	c.Start()
	app, _ := workload.NASAppByName("ep")
	app.Launch(m, workload.NASLaunchOpts{Threads: 32, SpawnCore: 0, Seed: opts.Seed, Scale: opts.Scale})
	m.Run(3 * sim.Second)
	fmt.Printf("sanity checker: %d checks, %d candidate violations, %d transients, %d confirmed\n",
		c.Checks(), c.Candidates(), c.Transients(), len(c.Violations()))
	for i, v := range c.Violations() {
		if i >= 5 {
			fmt.Printf("... and %d more\n", len(c.Violations())-5)
			break
		}
		fmt.Printf("  %s\n", v)
	}
	if rec.Len() > 0 {
		fmt.Println("\nprofiling captured during the violations (§4.1):")
		fmt.Print(viz.SummarizeBalance(rec.Events(), -1))
		if msg, found := viz.DiagnoseGroupImbalance(rec.Events()); found {
			fmt.Println(msg)
		}
	}
}

func writeSVG(dir, name string, h *viz.Heatmap) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := h.SVG(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", filepath.Join(dir, name))
	return nil
}
