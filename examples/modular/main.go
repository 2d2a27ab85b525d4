// Modular scheduler demo (§5 "Lessons Learned"): the paper proposes a
// scheduler made of a core module that owns the work-conserving invariant
// and optimization modules that merely *suggest* placements. This demo
// runs the Overload-on-Wakeup workload three ways:
//
//  1. the buggy kernel (cache affinity wired directly into wakeup),
//  2. the patched kernel (the paper's fix),
//  3. the buggy kernel with the modular layer attached — the same cache-
//     affinity heuristic, but as an overridable suggestion.
//
// The modular run recovers the fix's performance without touching the
// buggy code path, because infeasible affinity suggestions are vetoed by
// the invariant.
package main

import (
	"fmt"

	schedsim "repro"
	"repro/internal/modsched"
)

func run(fix, modular bool) (total schedsim.Time, report string) {
	cfg := schedsim.DefaultConfig()
	if fix {
		cfg.Features = schedsim.FixOverloadWakeup
	}
	m := schedsim.NewMachine(schedsim.Bulldozer8(), cfg, 42)
	var cm *modsched.CoreModule
	if modular {
		cm = modsched.Attach(m.Sched, modsched.Config{},
			modsched.CacheAffinity{}, modsched.NUMALocality{})
	}
	db := schedsim.NewTPCH(m, schedsim.DefaultTPCHOpts())
	noise := schedsim.StartNoise(m, schedsim.DefaultNoiseOpts())
	defer noise.Stop()
	m.Run(50 * schedsim.Millisecond)
	lats, ok := db.RunAll(60 * schedsim.Second)
	if !ok {
		panic("benchmark did not finish")
	}
	for _, l := range lats {
		total += l
	}
	if cm != nil {
		report = cm.String()
	}
	return total, report
}

func main() {
	buggy, _ := run(false, false)
	fixed, _ := run(true, false)
	modular, report := run(false, true)

	fmt.Println("full TPC-H benchmark on the 64-worker database:")
	fmt.Printf("  vanilla (Overload-on-Wakeup bug): %v\n", buggy)
	fmt.Printf("  patched kernel:                   %v\n", fixed)
	fmt.Printf("  buggy kernel + modular layer:     %v\n", modular)
	fmt.Println()
	fmt.Print(report)
	fmt.Println("\nthe cache-affinity heuristic still runs — but as a suggestion the")
	fmt.Println("core module overrides whenever accepting it would idle a core.")
}
