package campaign_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/topology"
	"repro/internal/tourney"
)

// TestCollapsePathMatchesPerScenario: the executor writes the same bytes
// whether it runs each collapsible cell as one job that copies provably
// equal lattice points or every scenario as its own job
// (RunnerOpts.NoFork), on inputs where every cell collapses (the smoke
// and default campaign matrices) and where none does (tourney's smoke
// lineup, whose policies carry modules and attach hooks). Every
// simulated scenario builds its topology once and runs its workload
// once, so the two counts agree on both paths; NoFork simulates every
// scenario, and the collapsed path simulates fewer exactly when the
// probe proved some points equal.
func TestCollapsePathMatchesPerScenario(t *testing.T) {
	def := campaign.DefaultMatrix()
	def.Scale = 0.25
	tsmoke := tourney.SmokeOptions()
	for _, tc := range []struct {
		name        string
		m           campaign.Matrix
		opts        campaign.RunnerOpts
		collapsible int // cells the executor collapses, of all cells
	}{
		{"smoke", campaign.SmokeMatrix(), campaign.RunnerOpts{BaseSeed: 42}, 4},
		{"default@0.25", def, campaign.RunnerOpts{BaseSeed: 42}, 6},
		{"tourney-smoke", tsmoke.Matrix(), tsmoke.RunnerOpts(), 0},
	} {
		scs := tc.m.Scenarios()
		var builds, runs atomic.Int64
		cells := map[string][]int{}
		for i, sc := range scs {
			cells[sc.CellKey()] = append(cells[sc.CellKey()], i)
			build := sc.Topology.Build
			scs[i].Topology.Build = func() *topology.Topology { builds.Add(1); return build() }
			run := sc.Workload.Run
			scs[i].Workload.Run = func(rc *campaign.RunContext) campaign.Outcome { runs.Add(1); return run(rc) }
		}
		collapsible := 0
		for _, idxs := range cells {
			if campaign.CellCollapsible(scs, idxs, tc.opts) {
				collapsible++
			}
		}
		if collapsible != tc.collapsible {
			t.Errorf("%s: %d of %d cells can collapse, want %d", tc.name, collapsible, len(cells), tc.collapsible)
		}
		var artifacts [2][]byte
		for i, noFork := range []bool{false, true} {
			opts := tc.opts
			opts.Workers, opts.NoFork = 2, noFork
			builds.Store(0)
			runs.Store(0)
			c, err := campaign.RunScenarios(scs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if artifacts[i], err = c.EncodeJSON(); err != nil {
				t.Fatal(err)
			}
			b, r := builds.Load(), runs.Load()
			if b != r {
				t.Errorf("%s, NoFork=%v: %d topology builds for %d workload runs", tc.name, noFork, b, r)
			}
			switch {
			case (noFork || collapsible == 0) && r != int64(len(scs)):
				t.Errorf("%s, NoFork=%v: %d of %d scenarios ran, want all", tc.name, noFork, r, len(scs))
			case !noFork && collapsible > 0 && r >= int64(len(scs)):
				t.Errorf("%s: %d of %d scenarios ran, want fewer: the collapse never fired", tc.name, r, len(scs))
			}
		}
		if !bytes.Equal(artifacts[0], artifacts[1]) {
			t.Errorf("%s: the collapsed path's artifact differs from NoFork's", tc.name)
		}
	}
}
