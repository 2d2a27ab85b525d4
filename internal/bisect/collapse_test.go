package bisect

import (
	"bytes"
	"testing"

	"repro/internal/campaign"
)

// TestCollapsedMatchesSequential: the collapsed lattice runner must
// produce byte-for-byte the artifact of one job per scenario
// (campaign.RunnerOpts.NoFork) on the smoke sweep — every lattice point,
// whether it was simulated or copied from a run whose probe proved the
// extra fixes never fired, carries exactly the bytes its own simulation
// produces.
func TestCollapsedMatchesSequential(t *testing.T) {
	o := smokeWithSeed()
	var reports [2]*Report
	var artifacts [2][]byte
	for i, noFork := range []bool{true, false} {
		opts := o.RunnerOpts()
		opts.NoFork = noFork
		c, err := campaign.Run(o.Matrix(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if reports[i], err = Analyze(c, o); err != nil {
			t.Fatal(err)
		}
		if artifacts[i], err = reports[i].EncodeJSON(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		rs, rf := reports[0], reports[1]
		for i := range rs.Campaign.Results {
			sr, fr := rs.Campaign.Results[i], rf.Campaign.Results[i]
			if sr.Key != fr.Key || sr.MakespanNs != fr.MakespanNs ||
				sr.Events != fr.Events || sr.Counters != fr.Counters ||
				sr.Violations != fr.Violations {
				t.Errorf("first diverging result %q:\n      seq: events=%d makespan=%d violations=%d\ncollapsed: events=%d makespan=%d violations=%d",
					sr.Key, sr.Events, sr.MakespanNs, sr.Violations,
					fr.Events, fr.MakespanNs, fr.Violations)
				break
			}
		}
		t.Fatal("collapsed sweep bytes differ from sequential sweep")
	}
}
