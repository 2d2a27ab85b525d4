package campaign_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/topology"
	"repro/internal/tourney"
)

// TestForkPathMatchesPerScenario: the executor writes the same bytes
// whether it runs each forkable cell on one forked world or every
// scenario as its own job (RunnerOpts.NoFork), on inputs where every
// cell forks (the smoke and default campaign matrices) and where none
// does (tourney's smoke lineup, whose policies carry modules and attach
// hooks). Each job builds its topology once, so the build count shows
// which schedule ran.
func TestForkPathMatchesPerScenario(t *testing.T) {
	def := campaign.DefaultMatrix()
	def.Scale = 0.25
	tsmoke := tourney.SmokeOptions()
	for _, tc := range []struct {
		name     string
		m        campaign.Matrix
		opts     campaign.RunnerOpts
		forkable int // cells the executor forks, of all cells
	}{
		{"smoke", campaign.SmokeMatrix(), campaign.RunnerOpts{BaseSeed: 42}, 4},
		{"default@0.25", def, campaign.RunnerOpts{BaseSeed: 42}, 6},
		{"tourney-smoke", tsmoke.Matrix(), tsmoke.RunnerOpts(), 0},
	} {
		scs := tc.m.Scenarios()
		var builds atomic.Int64
		cells := map[string][]int{}
		for i, sc := range scs {
			cells[sc.CellKey()] = append(cells[sc.CellKey()], i)
			build := sc.Topology.Build
			scs[i].Topology.Build = func() *topology.Topology { builds.Add(1); return build() }
		}
		forkable, forkJobs := 0, len(scs)
		for _, idxs := range cells {
			if campaign.CellForkable(scs, idxs, tc.opts) {
				forkable++
				forkJobs -= len(idxs) - 1
			}
		}
		if forkable != tc.forkable {
			t.Errorf("%s: %d of %d cells can fork, want %d", tc.name, forkable, len(cells), tc.forkable)
		}
		var artifacts [2][]byte
		for i, noFork := range []bool{false, true} {
			opts := tc.opts
			opts.Workers, opts.NoFork = 2, noFork
			builds.Store(0)
			c, err := campaign.RunScenarios(scs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if artifacts[i], err = c.EncodeJSON(); err != nil {
				t.Fatal(err)
			}
			want := forkJobs
			if noFork {
				want = len(scs)
			}
			if got := builds.Load(); got != int64(want) {
				t.Errorf("%s, NoFork=%v: %d jobs ran, want %d", tc.name, noFork, got, want)
			}
		}
		if !bytes.Equal(artifacts[0], artifacts[1]) {
			t.Errorf("%s: the forked path's artifact differs from NoFork's", tc.name)
		}
	}
}
