package explain

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/checker"
	"repro/internal/latency"
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
		o.rings.control.Record(junk)
		o.rings.fixed.Record(junk)
		o.replayCol.WaitEnd(1, nil, 0, sim.Second, true)
	}
	for i := 0; i < 3; i++ { // one short of a streak at the default K
		o.replayCol.WakeupPlaced(1, nil, 0, true, true)
	}
}

// TestRecycledScratchAcrossScenarios: Report hands an observer's decision
// rings and replay collector on to the next scenario's observer. Two
// scenarios run back to back, the second on what the first grew, must
// give the explain reports each gives on fresh rings.
func TestRecycledScratchAcrossScenarios(t *testing.T) {
	type scenario struct {
		app  string
		seed int64
	}
	// run simulates one scenario with the checker and streak hook wired
	// as the campaign wires them. fresh gives the observer new rings;
	// otherwise it takes whatever the pool holds. It returns the report's
	// JSON and the rings the observer used.
	run := func(sc scenario, fresh bool) ([]byte, *replayRings) {
		app, ok := workload.NASAppByName(sc.app)
		if !ok {
			t.Fatalf("unknown NAS app %s", sc.app)
		}
		topo := topology.Bulldozer8()
		m := machine.New(topo, sched.DefaultConfig(), sc.seed)
		o := NewObserver(m, Config{Checker: checker.Config{S: 20 * sim.Millisecond, M: 15 * sim.Millisecond}})
		if fresh {
			ringPool.Put(o.rings)
			o.rings = ringPool.New().(*replayRings)
		}
		rings := o.rings
		col := latency.NewCollector(latency.Config{})
		m.Sched.SetLatencyProbe(col)
		ck := checker.New(m.Sched, nil, o.cfg.Checker)
		ck.ObserveLatency(col)
		ck.SetEpisodeHook(o)
		col.SetStreakHook(o.OnStreak)
		ck.Start()
		var pinned sched.CPUSet
		for _, n := range []topology.NodeID{1, 2} {
			for _, c := range topo.CoresOfNode(n) {
				pinned.Set(c)
			}
		}
		app.Launch(m, workload.NASLaunchOpts{Threads: 16, Affinity: pinned, SpawnCore: 8, Seed: sc.seed, Scale: 0.1})
		m.Run(300 * sim.Millisecond)
		ck.Stop()
		rep := o.Report()
		if len(rep.Episodes) == 0 {
			t.Fatalf("%+v: no episode replayed; the rings went unused", sc)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data, rings
	}
	a, b := scenario{"lu", 7}, scenario{"cg", 3}
	alone := map[scenario][]byte{}
	for _, sc := range []scenario{a, b} {
		alone[sc], _ = run(sc, true)
	}
	for _, pair := range [][2]scenario{{a, b}, {b, a}} {
		_, first := run(pair[0], false)
		got, second := run(pair[1], false)
		if second != first {
			t.Logf("%+v after %+v: the pool did not hand back the first scenario's rings", pair[1], pair[0])
		}
		if !bytes.Equal(got, alone[pair[1]]) {
			t.Fatalf("%+v after %+v: explain report differs from the one on fresh rings:\n got  %s\n want %s",
				pair[1], pair[0], got, alone[pair[1]])
		}
	}
}
