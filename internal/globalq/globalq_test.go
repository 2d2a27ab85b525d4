package globalq

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestBothDesignsCompleteAllWork(t *testing.T) {
	for _, d := range []Design{SharedQueue, PerCoreQueue} {
		s := New(DefaultConfig(8), d, 1)
		s.Load(32, 20*sim.Millisecond)
		s.Run()
		if s.done != 32 {
			t.Fatalf("%v: completed %d of 32", d, s.done)
		}
		if s.useful != 32*20*sim.Millisecond {
			t.Fatalf("%v: useful = %v", d, s.useful)
		}
	}
}

func TestSharedQueueIsWorkConserving(t *testing.T) {
	// The strawman's one virtue: with one queue there is nothing to
	// balance, so an uneven task/core ratio still uses every core —
	// makespan ~ total work / cores (plus overhead).
	s := New(DefaultConfig(4), SharedQueue, 1)
	s.Load(5, 40*sim.Millisecond) // 5 tasks, 4 cores
	mk := s.Run()
	// Ideal: 200ms/4 = 50ms... but one core must run two full tasks
	// (round-robin interleaves, so all finish near 2x40=80... with
	// quantum 6ms the 5 tasks interleave: bound by ceil(5/4)*40 = 80ms
	// plus overhead.
	if mk > 85*sim.Millisecond {
		t.Fatalf("shared-queue makespan = %v, want <= ~80ms", mk)
	}
}

func TestContentionGrowsWithCores(t *testing.T) {
	sh8, pc8 := Experiment(8, 4, 20*sim.Millisecond)
	sh64, pc64 := Experiment(64, 4, 20*sim.Millisecond)
	// Shared-queue overhead grows with the machine.
	if sh64.OverheadFraction() <= sh8.OverheadFraction() {
		t.Fatalf("shared overhead did not grow: %.4f at 8 cores, %.4f at 64",
			sh8.OverheadFraction(), sh64.OverheadFraction())
	}
	// Per-core overhead stays flat.
	ratio := pc64.OverheadFraction() / pc8.OverheadFraction()
	if ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("per-core overhead not flat: %.6f vs %.6f", pc8.OverheadFraction(), pc64.OverheadFraction())
	}
	// At 64 cores the gap is pronounced (the §2.2 argument).
	if sh64.OverheadFraction() < 5*pc64.OverheadFraction() {
		t.Fatalf("expected a large shared-vs-per-core gap at 64 cores: %.4f vs %.4f",
			sh64.OverheadFraction(), pc64.OverheadFraction())
	}
}

func TestSwitchCost(t *testing.T) {
	cfg := DefaultConfig(64)
	sh := New(cfg, SharedQueue, 1)
	pc := New(cfg, PerCoreQueue, 1)
	if pc.switchCost() != cfg.SwitchBase {
		t.Fatalf("per-core switch cost = %v", pc.switchCost())
	}
	want := sim.Time(float64(cfg.SwitchBase) * (1 + cfg.ContentionFactor*63))
	if sh.switchCost() != want {
		t.Fatalf("shared switch cost = %v, want %v", sh.switchCost(), want)
	}
}

func TestScalingTable(t *testing.T) {
	out := ScalingTable([]int{2, 8}, 2, 10*sim.Millisecond)
	for _, w := range []string{"shared queue", "per-core queues", "cores"} {
		if !strings.Contains(out, w) {
			t.Fatalf("table missing %q:\n%s", w, out)
		}
	}
	if !strings.Contains(out, "2") || !strings.Contains(out, "8") {
		t.Fatalf("table missing rows:\n%s", out)
	}
}

func TestDesignString(t *testing.T) {
	if SharedQueue.String() != "shared-queue" || PerCoreQueue.String() != "per-core-queue" {
		t.Fatal("design names wrong")
	}
}

func TestMakespanIncludesOverhead(t *testing.T) {
	sh, pc := Experiment(32, 2, 10*sim.Millisecond)
	if sh.Makespan <= pc.Makespan {
		t.Fatalf("shared (%v) should be slower than per-core (%v) on balanced load",
			sh.Makespan, pc.Makespan)
	}
	if sh.Switches == 0 || pc.Switches == 0 {
		t.Fatal("no switches recorded")
	}
}

// TestSharedSweepAllocatesNothing: on a steady world, every core running
// one hog and nothing queued, the work-conservation sweep refills its
// online-core scratch in place and re-arms through a bound func, so a
// sweep period allocates nothing.
func TestSharedSweepAllocatesNothing(t *testing.T) {
	m := machine.New(topology.SMP(8), SharedConfig(), 1)
	g := AttachShared(m.Sched)
	p := m.NewProc("p", machine.ProcOpts{})
	hog := machine.NewProgram().Compute(sim.Second).Build()
	for i := 0; i < 8; i++ {
		p.SpawnOn(topology.CoreID(i), hog, machine.SpawnOpts{})
	}
	m.Run(10 * SweepEvery) // warm the engine's event pool
	sweeps := g.Sweeps
	allocs := testing.AllocsPerRun(50, func() { m.Eng.RunUntil(m.Eng.Now() + SweepEvery) })
	if g.Sweeps <= sweeps {
		t.Fatal("no sweep ran in the measured periods")
	}
	if allocs != 0 {
		t.Fatalf("a sweep period allocates %.1f times, want 0", allocs)
	}
}
