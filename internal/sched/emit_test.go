package sched_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestCountOnlyRecorderCountsEachRecordOnce: a count-only recorder
// makes the scheduler compute no record fields when no other recorder
// keeps them, yet counts every record exactly once. One make2r world
// (bulldozer8, scale 0.1) runs with a decision counter and a keep-last
// decision ring of the same capacity attached together, and again with
// the counter alone; the counter's Total and Dropped must equal the
// ring's in both runs. The capacity is small, so Dropped is exercised.
func TestCountOnlyRecorderCountsEachRecordOnce(t *testing.T) {
	const capacity = 1 << 10
	run := func(withRing bool) (counter, ring *trace.Recorder) {
		topo := topology.Bulldozer8()
		m := machine.New(topo, sched.DefaultConfig(), 7)
		counter = trace.NewDecisionCounter(capacity)
		counter.Start()
		m.SetRecorder(counter)
		if withRing {
			ring = trace.NewDecisionRing(capacity)
			ring.Start()
			m.SetRecorder(ring)
		}
		campaign.MustWorkloads("make2r")[0].Run(&campaign.RunContext{
			M: m, Topo: topo, Seed: 7, Scale: 0.1, Horizon: 100 * sim.Second,
		})
		return counter, ring
	}
	paired, ring := run(true)
	alone, _ := run(false)
	if ring.Dropped() == 0 {
		t.Fatalf("the ring dropped nothing (%d records); lower the capacity", ring.Total())
	}
	for _, r := range []struct {
		name string
		rec  *trace.Recorder
	}{{"counter beside the ring", paired}, {"counter alone", alone}} {
		if r.rec.Total() != ring.Total() || r.rec.Dropped() != ring.Dropped() {
			t.Errorf("%s: total %d, dropped %d; the ring's: total %d, dropped %d",
				r.name, r.rec.Total(), r.rec.Dropped(), ring.Total(), ring.Dropped())
		}
	}
}
