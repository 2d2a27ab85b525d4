package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Table2Row is one fix-configuration's result for the commercial-database
// experiment (paper Table 2): TPC-H query #18 and the full benchmark,
// with percentage change against the no-fixes baseline.
type Table2Row struct {
	Config  string
	Q18     sim.Time
	Full    sim.Time
	Q18Pct  float64
	FullPct float64
	// Complete is false when any run hit the horizon.
	Complete bool
}

// table2Configs are the paper's four rows and the fix-lattice configs
// they run under.
var table2Configs = []struct{ Name, Config string }{
	{"None", "fx-none"},
	{"Group Imbalance", "fx-gi"},
	{"Overload-on-Wakeup", "fx-oow"},
	{"Both", "fx-gi+oow"},
}

// Table2 reproduces the paper's Table 2 with the campaign workload tpch:
// a 64-worker database (containers of unequal size in distinct
// autogroups) running TPC-H alongside transient kernel noise, under
// each combination of the Group Imbalance and Overload-on-Wakeup fixes.
func Table2(opts Options) []Table2Row {
	configs := make([]string, len(table2Configs))
	for i, c := range table2Configs {
		configs[i] = c.Config
	}
	rows := make([]Table2Row, len(configs))
	for i, o := range runGrid(opts, 0, []string{"tpch"}, configs)[0] {
		rows[i] = Table2Row{
			Config:   table2Configs[i].Name,
			Q18:      sim.Time(math.Round(o.Extra["q18_s"] * float64(sim.Second))),
			Full:     o.Makespan,
			Complete: o.Completed,
		}
	}
	base := rows[0]
	for i := 1; i < len(rows); i++ {
		rows[i].Q18Pct = stats.PercentChange(base.Q18.Seconds(), rows[i].Q18.Seconds())
		rows[i].FullPct = stats.PercentChange(base.Full.Seconds(), rows[i].Full.Seconds())
	}
	return rows
}

// FormatTable2 renders rows in the paper's Table 2 layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: impact of the bug fixes on the commercial database (TPC-H)\n\n")
	fmt.Fprintf(&b, "%-22s %22s %22s\n", "Bug fixes", "TPC-H request #18", "Full TPC-H benchmark")
	for i, r := range rows {
		q18 := fmtTime(r.Q18)
		full := fmtTime(r.Full)
		if i > 0 {
			q18 = fmt.Sprintf("%s (%+.1f%%)", q18, r.Q18Pct)
			full = fmt.Sprintf("%s (%+.1f%%)", full, r.FullPct)
		}
		note := ""
		if !r.Complete {
			note = " (timeout)"
		}
		fmt.Fprintf(&b, "%-22s %22s %22s%s\n", r.Config, q18, full, note)
	}
	return b.String()
}
