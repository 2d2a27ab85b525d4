// Example: running a scenario campaign programmatically.
//
// This builds a custom matrix (rather than a preset), runs it on a
// worker pool, prints the summary, writes the JSON artifact, and then
// demonstrates baseline comparison by diffing the campaign against
// itself run under a different worker count — which, by the campaign
// determinism guarantee, reports zero regressions on identical bytes.
//
// Run with:
//
//	go run ./examples/campaign
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/sim"
)

func main() {
	// A 12-scenario matrix: the paper's machine and a flat SMP control,
	// the pinned Table 1 workload and the §3.1 make+R mix, under the
	// studied kernel, the Group Construction fix, and all fixes.
	m := campaign.Matrix{
		Topologies: []campaign.TopologySpec{topo("bulldozer8"), topo("smp8")},
		Workloads:  []campaign.Workload{load("nas-pin:lu"), load("make2r")},
		Configs:    []campaign.ConfigSpec{config("bugs"), config("fix-gc"), config("fixed")},
		Seeds:      []int64{1},
		Scale:      0.25,
		Horizon:    100 * sim.Second,
	}

	c, err := campaign.Run(m, campaign.RunnerOpts{Workers: 4, BaseSeed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(c.FormatSummary())

	// The headline contrast: pinned lu with and without the paper's
	// §3.2 fix.
	buggy := c.Result("bulldozer8/nas-pin:lu/bugs/s1")
	fixed := c.Result("bulldozer8/nas-pin:lu/fix-gc/s1")
	fmt.Printf("\npinned lu on bulldozer8: %v with the bug, %v with the fix (%.1fx), %v idle-while-overloaded\n",
		sim.Time(buggy.MakespanNs), sim.Time(fixed.MakespanNs),
		float64(buggy.MakespanNs)/float64(fixed.MakespanNs),
		sim.Time(buggy.IdleWhileOverloadedNs))

	// Write the artifact, re-run with a different worker count, and
	// compare: byte-identical, so the diff is clean.
	dir, err := os.MkdirTemp("", "campaign")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "baseline.json")
	if err := c.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	baseData, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	base, err := campaign.Decode(baseData)
	if err != nil {
		log.Fatal(err)
	}
	again, err := campaign.Run(m, campaign.RunnerOpts{Workers: 1, BaseSeed: 42})
	if err != nil {
		log.Fatal(err)
	}
	data, err := again.EncodeJSON()
	if err != nil {
		log.Fatal(err)
	}
	report, differs := campaign.BaselineReport(path, baseData, data, base, again, "")
	fmt.Printf("\nworkers=4 vs workers=1 artifacts byte-identical: %v\n", !differs)
	fmt.Print(report)
}

func topo(name string) campaign.TopologySpec {
	t, ok := campaign.TopologyByName(name)
	if !ok {
		log.Fatalf("unknown topology %q", name)
	}
	return t
}

func load(name string) campaign.Workload {
	w, ok := campaign.WorkloadByName(name)
	if !ok {
		log.Fatalf("unknown workload %q", name)
	}
	return w
}

func config(name string) campaign.ConfigSpec {
	c, ok := campaign.ConfigByName(name)
	if !ok {
		log.Fatalf("unknown config %q", name)
	}
	return c
}
