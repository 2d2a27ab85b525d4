package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// NASRow is one NAS application's result in Table 1 or Table 3:
// execution time with the bug, without it, and the speedup factor.
type NASRow struct {
	App     string
	WithBug sim.Time
	Fixed   sim.Time
	Speedup float64
	// Complete is false when a run hit the horizon.
	Complete bool
}

// Table1 reproduces the paper's Table 1: every NAS application launched
// with "numactl --cpunodebind=1,2" and as many threads as cores on those
// two nodes (16), as the campaign workload nas-pin:<app>. Nodes 1 and 2
// are two hops apart on the Bulldozer machine, so with the Scheduling
// Group Construction bug all threads stay on node 1, where they are
// created ("threads are created on the same node as their parent
// thread", §3.2); with the fix they spread over both nodes.
func Table1(opts Options) []NASRow {
	return nasTable(opts, "nas-pin:", "fx-gc", 0)
}

// nasTable runs the campaign workload family+<app> for every NAS
// application under the studied kernel (fx-none) and under fix, and
// times each run from launch, the virtual time at which the workload
// starts the application.
func nasTable(opts Options, family, fix string, launch sim.Time) []NASRow {
	apps := workload.NASSuite()
	names := make([]string, len(apps))
	for i, app := range apps {
		names[i] = family + app.Name
	}
	grid := runGrid(opts, launch, names, []string{"fx-none", fix})
	rows := make([]NASRow, len(apps))
	for i, app := range apps {
		buggy, fixed := grid[i][0], grid[i][1]
		bug, fx := buggy.Makespan-launch, fixed.Makespan-launch
		rows[i] = NASRow{
			App:      app.Name,
			WithBug:  bug,
			Fixed:    fx,
			Speedup:  stats.Speedup(bug.Seconds(), fx.Seconds()),
			Complete: buggy.Completed && fixed.Completed,
		}
	}
	return rows
}

// FormatTable1 renders rows in the paper's Table 1 layout.
func FormatTable1(rows []NASRow) string {
	return formatNAS(rows, "Table 1: NAS execution time with/without the Scheduling Group Construction bug\n"+
		"(16 threads, numactl --cpunodebind=1,2)\n")
}

// formatNAS renders the layout Tables 1 and 3 share under title.
func formatNAS(rows []NASRow, title string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %10s\n", "Application", "Time w/ bug", "Time w/o bug", "Speedup")
	for _, r := range rows {
		note := ""
		if !r.Complete {
			note = " (timeout)"
		}
		fmt.Fprintf(&b, "%-12s %14s %14s %9.2fx%s\n",
			r.App, fmtTime(r.WithBug), fmtTime(r.Fixed), r.Speedup, note)
	}
	return b.String()
}

func fmtTime(t sim.Time) string {
	return stats.FormatSeconds(t.Seconds())
}
