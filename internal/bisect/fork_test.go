package bisect

import (
	"bytes"
	"testing"

	"repro/internal/campaign"
)

// TestForkedMatchesSequential is the tentpole's correctness gate: the
// checkpoint/fork path must produce byte-for-byte the artifact of the
// sequential one (campaign.RunnerOpts.NoFork) on the smoke sweep — every
// lattice point, whether it was simulated on a fork or collapsed from a
// never-fired-probe run, carries exactly the bytes a from-scratch
// simulation produces.
func TestForkedMatchesSequential(t *testing.T) {
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
				t.Errorf("first diverging result %q:\n seq: events=%d makespan=%d violations=%d\nfork: events=%d makespan=%d violations=%d",
					sr.Key, sr.Events, sr.MakespanNs, sr.Violations,
					fr.Events, fr.MakespanNs, fr.Violations)
				break
			}
		}
		t.Fatal("forked sweep bytes differ from sequential sweep")
	}
}
