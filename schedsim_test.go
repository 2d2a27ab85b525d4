package schedsim_test

import (
	"testing"

	schedsim "repro"
)

// These tests exercise the library the way a downstream user would: only
// through the public aliases.

func TestQuickstartFlow(t *testing.T) {
	m := schedsim.NewMachine(schedsim.SMP(4), schedsim.DefaultConfig(), 1)
	p := m.NewProc("app", schedsim.ProcOpts{})
	prog := schedsim.NewProgram().
		Compute(5 * schedsim.Millisecond).
		Sleep(schedsim.Millisecond).
		Compute(5 * schedsim.Millisecond).
		Build()
	for i := 0; i < 4; i++ {
		p.Spawn(prog, schedsim.SpawnOpts{})
	}
	end, ok := m.RunUntilDone(schedsim.Second, p)
	if !ok {
		t.Fatal("did not finish")
	}
	if end > 50*schedsim.Millisecond {
		t.Fatalf("took %v", end)
	}
}

func TestPublicBugToggle(t *testing.T) {
	run := func(f schedsim.Features) uint64 {
		cfg := schedsim.DefaultConfig()
		cfg.Features = f
		m := schedsim.NewMachine(schedsim.TwoNode(2), cfg, 3)
		db := schedsim.NewTPCH(m, schedsim.TPCHOpts{Containers: []int{4}, Autogroups: true, Seed: 1})
		m.Run(20 * schedsim.Millisecond)
		db.RunQuery(0, 0, schedsim.Second)
		return m.Sched.Counters().Wakeups
	}
	if run(0) == 0 || run(schedsim.AllFixes) == 0 {
		t.Fatal("no wakeups observed through public API")
	}
}

func TestPublicChecker(t *testing.T) {
	m := schedsim.NewMachine(schedsim.SMP(2), schedsim.DefaultConfig(), 1)
	c := schedsim.NewChecker(m.Sched, nil, schedsim.CheckerConfig{S: 10 * schedsim.Millisecond})
	c.Start()
	p := m.NewProc("p", schedsim.ProcOpts{})
	p.Spawn(schedsim.NewProgram().Compute(100*schedsim.Millisecond).Build(), schedsim.SpawnOpts{})
	m.Run(100 * schedsim.Millisecond)
	if c.Checks() == 0 {
		t.Fatal("checker idle")
	}
	if len(c.Violations()) != 0 {
		t.Fatal("false positive on a healthy machine")
	}
}

func TestPublicTraceAndHeatmap(t *testing.T) {
	m := schedsim.NewMachine(schedsim.SMP(2), schedsim.DefaultConfig(), 1)
	rec := schedsim.NewRecorder(1 << 12)
	m.SetRecorder(rec)
	rec.Start()
	m.Sched.EmitSnapshot()
	p := m.NewProc("p", schedsim.ProcOpts{})
	p.Spawn(schedsim.NewProgram().Compute(20*schedsim.Millisecond).Build(), schedsim.SpawnOpts{})
	m.Run(20 * schedsim.Millisecond)
	rec.Stop()
	h := schedsim.RQSizeHeatmap(rec.Events(), 2, 10, 0, 20*schedsim.Millisecond)
	if h.Max() < 1 {
		t.Fatalf("heatmap max = %v, want >= 1", h.Max())
	}
}

func TestPublicTopologyAccessors(t *testing.T) {
	topo := schedsim.Bulldozer8()
	if topo.NumCores() != 64 || topo.NumNodes() != 8 {
		t.Fatal("Bulldozer8 shape wrong")
	}
	set := schedsim.NodeSet(topo, 1, 2)
	if set.Count() != 16 {
		t.Fatal("NodeSet wrong")
	}
	if len(schedsim.NASSuite()) != 9 {
		t.Fatal("NASSuite wrong")
	}
}
