package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bisect"
	"repro/internal/campaign"
	"repro/internal/sim"
)

// AttributionRow cross-checks one paper table's pathology scenario
// against the bisection lattice: the "minimal fix set" column for
// Tables 1–4. Each row records the fix the paper attributes the
// pathology to and the minimal fix set family the 2^4 lattice walk
// actually computed for the matching campaign cell.
type AttributionRow struct {
	// Table and Bug name the paper's attribution.
	Table string
	Bug   string
	// Scenario is the campaign cell, "topology/workload".
	Scenario string
	// PaperFix is the short name of the fix the paper prescribes.
	PaperFix string
	// Basis says which verdict the Computed column comes from:
	// "episodes" (checker-confirmed idle-while-overloaded classes) or
	// "makespan" (the performance verdict, used when the pathology's
	// episodes are too short for invariant confirmation, as in §3.3).
	Basis string
	// Computed is the minimal fix set family from the lattice walk.
	Computed []string
	// Match is true when the family contains the paper's fix as a
	// singleton minimal set.
	Match bool
	// Note carries the cell's non-monotone interactions and residuals.
	Note string
}

// attributionCases maps the paper's tables to campaign cells and fixes.
var attributionCases = []struct {
	Table, Bug, Workload, PaperFix, Basis string
}{
	{"Table 1", "Scheduling Group Construction", "nas-pin:lu", "gc", "episodes"},
	{"Table 2", "Overload-on-Wakeup", "tpch", "oow", "makespan"},
	{"Table 3", "Missing Scheduling Domains", "nas-hotplug:lu", "md", "episodes"},
	{"Table 4 (§3.1)", "Group Imbalance", "make2r", "gi", "episodes"},
}

// Attribution runs the fix-set bisection over the four pathology
// scenarios of Tables 1–4 on the Bulldozer machine and returns the
// cross-check rows. The returned report carries the full per-cell
// verdicts for callers that want more than the summary column.
func Attribution(opts Options) ([]AttributionRow, *bisect.Report, error) {
	opts = opts.withDefaults()
	var loads []string
	for _, c := range attributionCases {
		loads = append(loads, c.Workload)
	}
	b := bisect.Options{
		Topologies: campaign.MustTopologies("bulldozer8"),
		Workloads:  campaign.MustWorkloads(loads...),
		Seeds:      []int64{1},
		Scale:      opts.Scale,
		BaseSeed:   opts.Seed,
	}
	r, err := bisect.Run(b)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: attribution sweep failed: %w", err)
	}

	var rows []AttributionRow
	for _, c := range attributionCases {
		cell := r.Cell("bulldozer8", c.Workload, 1)
		if cell == nil {
			return nil, nil, fmt.Errorf("experiments: attribution cell missing for %s", c.Workload)
		}
		row := AttributionRow{
			Table:    c.Table,
			Bug:      c.Bug,
			Scenario: "bulldozer8/" + c.Workload,
			PaperFix: c.PaperFix,
			Basis:    c.Basis,
		}
		switch c.Basis {
		case "episodes":
			row.Computed = cell.MinimalFixSets
		case "makespan":
			row.Computed = cell.PerfMinimalFixSets
		}
		for _, set := range row.Computed {
			if set == c.PaperFix {
				row.Match = true
			}
		}
		var notes []string
		if c.Basis == "makespan" && cell.BaselineViolations == 0 {
			notes = append(notes, "episodes too short for invariant confirmation; makespan verdict")
		}
		for _, in := range cell.Interactions {
			if in.Base == c.PaperFix {
				notes = append(notes, fmt.Sprintf("interaction: +%s re-introduces %v idle-while-overloaded",
					in.Added, sim.Time(in.CombinedIdleNs)))
				break
			}
		}
		row.Note = strings.Join(notes, "; ")
		rows = append(rows, row)
	}
	return rows, r, nil
}

// FormatAttribution renders the cross-check as the Tables 1–4 "minimal
// fix set" column.
func FormatAttribution(rows []AttributionRow) string {
	var b strings.Builder
	b.WriteString("Attribution: minimal fix sets from the 2^4 lattice vs the paper's per-bug fixes\n\n")
	fmt.Fprintf(&b, "%-15s %-30s %-25s %-10s %-20s %s\n",
		"Table", "Bug", "Scenario", "Paper fix", "Computed", "Match")
	for _, r := range rows {
		computed := "(none)"
		if len(r.Computed) > 0 {
			var parts []string
			for _, s := range r.Computed {
				parts = append(parts, "{"+s+"}")
			}
			computed = strings.Join(parts, "|")
		}
		match := "NO"
		if r.Match {
			match = "yes"
		}
		fmt.Fprintf(&b, "%-15s %-30s %-25s %-10s %-20s %s\n",
			r.Table, r.Bug, r.Scenario, "{"+r.PaperFix+"}", computed+" ("+r.Basis+")", match)
		if r.Note != "" {
			fmt.Fprintf(&b, "    %s\n", r.Note)
		}
	}
	return b.String()
}
