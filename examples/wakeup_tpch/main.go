// Overload-on-Wakeup demo (§3.3 / Table 2): a 64-worker database running
// TPC-H-like queries next to transient kernel noise. With the bug,
// wakeups only consider the waker's node, so workers pile onto busy cores
// while other nodes idle; the fix wakes them on the longest-idle core.
package main

import (
	"fmt"

	schedsim "repro"
)

func run(fix bool) (q18, full schedsim.Time) {
	cfg := schedsim.DefaultConfig()
	if fix {
		cfg.Features = schedsim.FixOverloadWakeup
	}
	m := schedsim.NewMachine(schedsim.Bulldozer8(), cfg, 42)

	db := schedsim.NewTPCH(m, schedsim.DefaultTPCHOpts())
	noise := schedsim.StartNoise(m, schedsim.DefaultNoiseOpts())
	defer noise.Stop()
	m.Run(50 * schedsim.Millisecond) // workers spread and park

	lats, ok := db.RunAll(60 * schedsim.Second)
	if !ok {
		panic("benchmark did not finish")
	}
	for q, l := range lats {
		full += l
		if q == 17 { // TPC-H Q18
			q18 = l
		}
	}
	c := m.Sched.Counters()
	label := "bug"
	if fix {
		label = "fix"
	}
	fmt.Printf("%s: Q18=%-10v full=%-10v wakeups on busy cores=%d\n",
		label, q18, full, c.WakeupsOnBusy)
	return q18, full
}

func main() {
	fmt.Println("TPC-H on the 64-worker database (paper Table 2)")
	bq18, bfull := run(false)
	fq18, ffull := run(true)
	fmt.Printf("\nOverload-on-Wakeup fix: Q18 %+.1f%% (paper -22.2%%), full %+.1f%% (paper -13.2%%)\n",
		100*(fq18.Seconds()-bq18.Seconds())/bq18.Seconds(),
		100*(ffull.Seconds()-bfull.Seconds())/bfull.Seconds())
}
