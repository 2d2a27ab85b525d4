package explain

import (
	"reflect"
	"testing"

	"repro/internal/checker"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestReplayScratchReuse: an Observer reuses one replay scratch
// (collector, control and fix rings) for every replay of a scenario, so nothing
// a replay leaves in it may reach the next. Replaying the same episode
// again on a scratch dirtied past every replay's high-water mark —
// stale records, an open busy-while-idle run, stale latency samples —
// must return the Episode a fresh Observer returned.
func TestReplayScratchReuse(t *testing.T) {
	app, ok := workload.NASAppByName("lu")
	if !ok {
		t.Fatal("unknown NAS app lu")
	}
	topo := topology.Bulldozer8()
	m := machine.New(topo, sched.DefaultConfig(), 7)
	o := NewObserver(m, Config{Checker: checker.Config{M: 15 * sim.Millisecond}})
	// Table 1's pinning: the app on two nodes two hops apart, where the
	// group-construction bug leaves cores idle.
	var pinned sched.CPUSet
	for _, n := range []topology.NodeID{1, 2} {
		for _, c := range topo.CoresOfNode(n) {
			pinned.Set(c)
		}
	}
	app.Launch(m, workload.NASLaunchOpts{Threads: 16, Affinity: pinned, SpawnCore: 8, Seed: 5, Scale: 0.1})
	m.Run(30 * sim.Millisecond)

	now := m.Eng.Now()
	world := fork(m)
	if world == nil {
		t.Fatal("world not forkable")
	}
	// An episode's last replay runs on its episode world, so each replay
	// of the episode gets its own fork of world.
	replay := func(spec episodeSpec) Episode {
		spec.world = fork(world)
		return o.replayEpisode(spec)
	}
	for _, spec := range []episodeSpec{
		{kind: "checker", from: now, onset: now, detected: now, idle: 8, busy: 9,
			persistFn: persistChecker},
		{kind: "streak", from: now, onset: now, detected: now, idle: -1, busy: -1,
			persistFn: persistStreak},
	} {
		want := replay(spec)
		if want.Control.Decisions == 0 || want.Control.Events == 0 {
			t.Fatalf("%s: control replay recorded nothing: %+v", spec.kind, want.Control)
		}
		diverged := false
		for _, f := range want.Fixes {
			diverged = diverged || f.FirstDivergence != nil
		}
		if !diverged {
			t.Fatalf("%s: no fix diverged from the control; the check would not cover the rings", spec.kind)
		}

		for round := 0; round < 2; round++ {
			dirtyScratch(o, 2*int(want.Control.Decisions))
			if got := replay(spec); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, reuse %d: episode differs from the fresh observer's:\n got  %+v\n want %+v",
					spec.kind, round+1, got, want)
			}
		}
	}
}

// dirtyScratch fills every part of o's replay scratch with state that a
// missing reset would leak into the next replay.
func dirtyScratch(o *Observer, n int) {
	junk := trace.Event{At: 1, Kind: trace.KindMigration, CPU: 1, Dst: 2, Arg: -1}
	for i := 0; i < n; i++ {
		o.controlRing.Record(junk)
		o.fixedRing.Record(junk)
		o.replayCol.WaitEnd(1, nil, 0, sim.Second, true)
	}
	for i := 0; i < 3; i++ { // one short of a streak at the default K
		o.replayCol.WakeupPlaced(1, nil, 0, true, true)
	}
}
