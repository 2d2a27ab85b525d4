// Example: bisecting the bug-fix lattice programmatically.
//
// This runs the 2^4 fix lattice for the Table 1 pinned NAS run on the
// paper's Bulldozer machine, prints the computed verdict, and then pulls
// the individual answers out of the report: the minimal fix set that
// removes the group-construction episodes, and the non-monotone edge
// showing the min-load fix re-introducing violations under pinning.
//
// Run with:
//
//	go run ./examples/bisect
package main

import (
	"fmt"
	"log"

	"repro/internal/bisect"
	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	o := bisect.SmokeOptions()
	o.BaseSeed = 42
	r, err := bisect.Run(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(r.FormatSummary())

	// The Table 1 attribution, machine-checked: which minimal fix set
	// removes the pinned run's idle-while-overloaded episodes?
	cell := r.Cell("bulldozer8", "nas-pin:lu", 1)
	if cell == nil {
		log.Fatal("nas-pin cell missing")
	}
	fmt.Printf("\nTable 1 pinning pathology: %d episodes (%v idle-while-overloaded), minimal fix set(s): %v\n",
		cell.BaselineViolations, sim.Time(cell.BaselineIdleNs), cell.MinimalFixSets)

	// The interaction report: adding a fix can hurt. Under pinning the
	// min-load comparison (fix-gi) sees min load 0 in every overlapping
	// group — pinned-away nodes are idle — and stops balancing.
	for _, in := range cell.Interactions {
		if in.Added == sched.FixGroupImbalance.String() {
			fmt.Printf("non-monotone: {%s} + %s re-introduces %v of idle-while-overloaded time (%v before)\n",
				in.Base, in.Added, sim.Time(in.CombinedIdleNs), sim.Time(in.BaseIdleNs))
		}
	}

	// The raw lattice points stay available through the embedded
	// campaign artifact, keyed like any campaign scenario.
	buggy := r.Campaign.Result("bulldozer8/nas-pin:lu/fx-none/s1")
	fixed := r.Campaign.Result("bulldozer8/nas-pin:lu/fx-gc/s1")
	fmt.Printf("makespan %v with the bugs, %v with the group-construction fix (%.1fx)\n",
		sim.Time(buggy.MakespanNs), sim.Time(fixed.MakespanNs),
		float64(buggy.MakespanNs)/float64(fixed.MakespanNs))
}
