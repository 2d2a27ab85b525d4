package sched

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// testEnv bundles a scheduler with its engine for dynamic tests. Threads
// created through it are CPU hogs: they run until preempted and never
// block on their own, which is all most balancing tests need.
type testEnv struct {
	eng *sim.Engine
	s   *Scheduler
}

func newEnv(topo *topology.Topology, cfg Config) *testEnv {
	eng := sim.New(42)
	s := New(eng, topo, cfg)
	s.Start()
	return &testEnv{eng: eng, s: s}
}

// hog creates and starts a CPU-bound thread on the given core.
func (e *testEnv) hog(name string, cpu topology.CoreID, opts ThreadOpts) *Thread {
	t := e.s.NewThread(name, opts)
	e.s.StartThreadOn(t, cpu)
	return t
}

func (e *testEnv) run(d sim.Time) { e.eng.RunUntil(e.eng.Now() + d) }

func TestSingleHogRunsAlone(t *testing.T) {
	e := newEnv(topology.SMP(1), DefaultConfig())
	h := e.hog("h", 0, ThreadOpts{})
	e.run(100 * sim.Millisecond)
	if h.State() != StateRunning {
		t.Fatalf("state = %v", h.State())
	}
	// All CPU time accounted (modulo the currently accruing tick).
	if h.SumExec() < 99*sim.Millisecond {
		t.Fatalf("sumExec = %v, want ~100ms", h.SumExec())
	}
	if e.s.Counters().Preemptions != 0 {
		t.Fatalf("lone hog was preempted %d times", e.s.Counters().Preemptions)
	}
}

func TestTwoEqualHogsShareFairly(t *testing.T) {
	e := newEnv(topology.SMP(1), DefaultConfig())
	a := e.hog("a", 0, ThreadOpts{})
	b := e.hog("b", 0, ThreadOpts{})
	e.run(300 * sim.Millisecond)
	ta, tb := float64(a.SumExec()), float64(b.SumExec())
	if ta == 0 || tb == 0 {
		t.Fatalf("starvation: a=%v b=%v", a.SumExec(), b.SumExec())
	}
	ratio := ta / tb
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("unfair split: a=%v b=%v (ratio %.2f)", a.SumExec(), b.SumExec(), ratio)
	}
	if got := a.SumExec() + b.SumExec(); got < 299*sim.Millisecond {
		t.Fatalf("total exec = %v, want ~300ms (work conservation)", got)
	}
}

func TestNiceWeightingSharesCPU(t *testing.T) {
	e := newEnv(topology.SMP(1), DefaultConfig())
	fast := e.hog("nice0", 0, ThreadOpts{Nice: 0})
	slow := e.hog("nice5", 0, ThreadOpts{Nice: 5})
	e.run(500 * sim.Millisecond)
	want := float64(WeightForNice(0)) / float64(WeightForNice(5)) // ~3.06
	got := float64(fast.SumExec()) / float64(slow.SumExec())
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("nice ratio = %.2f, want ~%.2f", got, want)
	}
}

func TestTenHogsNoStarvation(t *testing.T) {
	e := newEnv(topology.SMP(1), DefaultConfig())
	var hogs []*Thread
	for i := 0; i < 10; i++ {
		hogs = append(hogs, e.hog("h", 0, ThreadOpts{}))
	}
	e.run(time500)
	for i, h := range hogs {
		share := float64(h.SumExec()) / float64(time500)
		if share < 0.05 || share > 0.15 {
			t.Fatalf("hog %d share = %.3f, want ~0.1", i, share)
		}
	}
}

const time500 = 500 * sim.Millisecond

func TestBalancingSpreadsHogsAcrossSMP(t *testing.T) {
	// 4 hogs forked on cpu 0 of a 4-core SMP must spread to one per core.
	e := newEnv(topology.SMP(4), DefaultConfig())
	for i := 0; i < 4; i++ {
		e.hog("h", 0, ThreadOpts{})
	}
	e.run(100 * sim.Millisecond)
	for cpu := topology.CoreID(0); cpu < 4; cpu++ {
		if got := e.s.NrRunning(cpu); got != 1 {
			t.Fatalf("cpu %d nr_running = %d, want 1", cpu, got)
		}
	}
	// After spreading, idleness should be negligible.
	if r := e.s.WastedRatio(0); r > 0.05 {
		t.Fatalf("wasted ratio = %.3f", r)
	}
}

func TestBalancingAcrossNodes(t *testing.T) {
	// 8 hogs forked on one core of a 2-node machine spread across both
	// nodes (4 cores each).
	e := newEnv(topology.TwoNode(4), DefaultConfig())
	for i := 0; i < 8; i++ {
		e.hog("h", 0, ThreadOpts{})
	}
	e.run(200 * sim.Millisecond)
	for cpu := topology.CoreID(0); cpu < 8; cpu++ {
		if got := e.s.NrRunning(cpu); got != 1 {
			t.Fatalf("cpu %d nr_running = %d, want 1", cpu, got)
		}
	}
}

func TestTasksetExclusionStealsUnpinned(t *testing.T) {
	// Lines 18-22 of Algorithm 1: cpu1 must skip the pinned threads on
	// cpu0 and still steal the unpinned one.
	e := newEnv(topology.SMP(2), DefaultConfig())
	pinned := ThreadOpts{Affinity: NewCPUSet(0)}
	e.hog("p1", 0, pinned)
	e.hog("p2", 0, pinned)
	free := e.hog("free", 0, ThreadOpts{})
	e.run(50 * sim.Millisecond)
	if free.CPU() != 1 {
		t.Fatalf("unpinned thread on cpu %d, want 1", free.CPU())
	}
	if e.s.NrRunning(1) != 1 {
		t.Fatalf("cpu1 nr_running = %d", e.s.NrRunning(1))
	}
}

func TestAffinityRespectedByBalancer(t *testing.T) {
	e := newEnv(topology.SMP(4), DefaultConfig())
	var hogs []*Thread
	for i := 0; i < 8; i++ {
		hogs = append(hogs, e.hog("h", 0, ThreadOpts{Affinity: NewCPUSet(0, 1)}))
	}
	e.run(200 * sim.Millisecond)
	for _, h := range hogs {
		if h.CPU() > 1 {
			t.Fatalf("pinned thread migrated to cpu %d", h.CPU())
		}
	}
	// cpus 2,3 stay idle: that is legal (tasksets), not a bug.
	if e.s.NrRunning(2) != 0 || e.s.NrRunning(3) != 0 {
		t.Fatal("threads leaked outside taskset")
	}
}

func TestBlockAndTimerWake(t *testing.T) {
	e := newEnv(topology.SMP(2), DefaultConfig())
	h := e.hog("sleeper", 0, ThreadOpts{})
	e.run(10 * sim.Millisecond)
	// Block it, then wake it 5ms later via timer (waker == nil).
	e.eng.After(0, func() {
		e.s.BlockCurrent(h, StateSleeping)
		e.eng.After(5*sim.Millisecond, func() { e.s.Wake(h, nil) })
	})
	e.run(sim.Millisecond)
	if h.State() != StateSleeping {
		t.Fatalf("state = %v, want sleeping", h.State())
	}
	if !e.s.IsIdle(0) {
		t.Fatal("cpu0 should be idle while its only thread sleeps")
	}
	e.run(20 * sim.Millisecond)
	if h.State() != StateRunning {
		t.Fatalf("state after wake = %v", h.State())
	}
	if h.CPU() != 0 {
		t.Fatalf("timer wake moved thread to cpu %d, want prev cpu 0", h.CPU())
	}
}

func TestExitReleasesCPU(t *testing.T) {
	e := newEnv(topology.SMP(1), DefaultConfig())
	a := e.hog("a", 0, ThreadOpts{})
	b := e.hog("b", 0, ThreadOpts{})
	e.run(10 * sim.Millisecond)
	e.eng.After(0, func() {
		curr := e.s.Curr(0)
		e.s.ExitCurrent(curr)
	})
	e.run(10 * sim.Millisecond)
	exited := a
	other := b
	if a.State() != StateExited {
		exited, other = b, a
	}
	if exited.State() != StateExited {
		t.Fatal("no thread exited")
	}
	if other.State() != StateRunning {
		t.Fatalf("survivor state = %v", other.State())
	}
	if exited.Group().NumThreads() != exited.Group().NumThreads() {
		t.Fatal("unreachable")
	}
}

func TestWakePreemptsLaggard(t *testing.T) {
	// A thread that slept accrues vruntime credit and preempts a hog.
	e := newEnv(topology.SMP(1), DefaultConfig())
	sleeper := e.hog("sleeper", 0, ThreadOpts{})
	e.run(5 * sim.Millisecond)
	e.eng.After(0, func() { e.s.BlockCurrent(sleeper, StateSleeping) })
	e.run(sim.Millisecond)
	hog := e.hog("hog", 0, ThreadOpts{})
	e.run(50 * sim.Millisecond) // hog accumulates vruntime
	e.eng.After(0, func() { e.s.Wake(sleeper, nil) })
	e.run(2 * sim.Millisecond)
	if sleeper.State() != StateRunning {
		t.Fatalf("woken sleeper state = %v, want running (preemption)", sleeper.State())
	}
	if hog.State() != StateRunnable {
		t.Fatalf("hog state = %v, want runnable", hog.State())
	}
}

func TestMinVruntimeMonotonic(t *testing.T) {
	e := newEnv(topology.SMP(2), DefaultConfig())
	for i := 0; i < 6; i++ {
		e.hog("h", 0, ThreadOpts{})
	}
	last := make([]sim.Time, 2)
	for step := 0; step < 50; step++ {
		e.run(5 * sim.Millisecond)
		for cpu := 0; cpu < 2; cpu++ {
			mv := e.s.cpus[cpu].rq.minVruntime
			if mv < last[cpu] {
				t.Fatalf("min_vruntime went backwards on cpu %d: %v -> %v", cpu, last[cpu], mv)
			}
			last[cpu] = mv
		}
	}
}

func TestWorkConservationAllFixes(t *testing.T) {
	// With every fix applied, a mixed hog workload on the full machine
	// must keep wasted core time negligible.
	cfg := DefaultConfig().WithFixes(AllFixes)
	e := newEnv(topology.Bulldozer8(), cfg)
	for i := 0; i < 64; i++ {
		e.hog("h", topology.CoreID(0), ThreadOpts{})
	}
	// Spreading 64 threads stacked on one core takes the balancer tens of
	// milliseconds (as on a real kernel); the invariant concerns steady
	// state, so measure the second half of the run.
	e.run(150 * sim.Millisecond)
	w1 := e.s.WastedCoreTime()
	e.run(150 * sim.Millisecond)
	w2 := e.s.WastedCoreTime()
	r := float64(w2-w1) / float64(150*sim.Millisecond*64)
	if r > 0.02 {
		t.Fatalf("steady-state wasted ratio with all fixes = %.4f, want < 0.02", r)
	}
	for cpu := topology.CoreID(0); cpu < 64; cpu++ {
		if e.s.NrRunning(cpu) != 1 {
			t.Fatalf("cpu %d nr_running = %d after spreading 64 hogs", cpu, e.s.NrRunning(cpu))
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, []sim.Time) {
		e := newEnv(topology.TwoNode(4), DefaultConfig())
		var hogs []*Thread
		for i := 0; i < 12; i++ {
			hogs = append(hogs, e.hog("h", 0, ThreadOpts{}))
		}
		e.run(150 * sim.Millisecond)
		var execs []sim.Time
		for _, h := range hogs {
			execs = append(execs, h.SumExec())
		}
		return e.s.Counters().Migrations, execs
	}
	m1, e1 := run()
	m2, e2 := run()
	if m1 != m2 {
		t.Fatalf("migration counts differ: %d vs %d", m1, m2)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("thread %d exec differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestHotplugMigratesThreads(t *testing.T) {
	e := newEnv(topology.SMP(4), DefaultConfig())
	var hogs []*Thread
	for i := 0; i < 4; i++ {
		hogs = append(hogs, e.hog("h", 0, ThreadOpts{}))
	}
	e.run(50 * sim.Millisecond)
	e.eng.After(0, func() {
		if err := e.s.DisableCPU(2); err != nil {
			t.Errorf("disable: %v", err)
		}
	})
	e.run(50 * sim.Millisecond)
	for _, h := range hogs {
		if h.CPU() == 2 && h.State() != StateNew {
			t.Fatalf("thread still on offline cpu 2 (state %v)", h.State())
		}
	}
	total := 0
	for cpu := topology.CoreID(0); cpu < 4; cpu++ {
		total += e.s.NrRunning(cpu)
	}
	if total != 4 {
		t.Fatalf("threads lost during hotplug: total running %d", total)
	}
}

func TestCountersReport(t *testing.T) {
	e := newEnv(topology.SMP(2), DefaultConfig())
	e.hog("a", 0, ThreadOpts{})
	e.hog("b", 0, ThreadOpts{})
	e.run(100 * sim.Millisecond)
	c := e.s.Counters()
	if c.Forks != 2 || c.Switches == 0 {
		t.Fatalf("counters: %+v", c)
	}
	if c.String() == "" {
		t.Fatal("empty counters string")
	}
}

func TestNoNOHZIdleCoresStillTick(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NOHZ = false
	e := newEnv(topology.SMP(2), cfg)
	// cpu1 idle but ticking: it should pull via periodic balance.
	e.hog("a", 0, ThreadOpts{})
	e.hog("b", 0, ThreadOpts{})
	e.run(50 * sim.Millisecond)
	if e.s.NrRunning(1) != 1 {
		t.Fatalf("idle ticking core did not pull: nr=%d", e.s.NrRunning(1))
	}
}

func TestNohzKickAndBalance(t *testing.T) {
	cfg := DefaultConfig() // NOHZ on
	e := newEnv(topology.SMP(2), cfg)
	e.hog("a", 0, ThreadOpts{})
	e.hog("b", 0, ThreadOpts{})
	e.run(100 * sim.Millisecond)
	c := e.s.Counters()
	if e.s.NrRunning(1) != 1 {
		t.Fatalf("tickless idle core never got work: nr=%d (kicks=%d)", e.s.NrRunning(1), c.NohzKicks)
	}
}

func TestSetAffinityMigratesQueued(t *testing.T) {
	e := newEnv(topology.SMP(2), DefaultConfig())
	a := e.hog("a", 0, ThreadOpts{Affinity: NewCPUSet(0)})
	b := e.hog("b", 0, ThreadOpts{Affinity: NewCPUSet(0)})
	e.run(20 * sim.Millisecond)
	e.eng.After(0, func() {
		queued := a
		if a.State() == StateRunning {
			queued = b
		}
		e.s.SetAffinity(queued, NewCPUSet(1))
	})
	e.run(20 * sim.Millisecond)
	if e.s.NrRunning(1) != 1 {
		t.Fatalf("affinity change did not migrate: cpu1 nr=%d", e.s.NrRunning(1))
	}
}

func TestWastedCoreTimeAccounting(t *testing.T) {
	// Pin two hogs to cpu0 of a 2-cpu box: cpu1 idles while cpu0 has a
	// waiting thread -> wasted time accrues at ~1 core.
	e := newEnv(topology.SMP(2), DefaultConfig())
	e.hog("a", 0, ThreadOpts{Affinity: NewCPUSet(0)})
	e.hog("b", 0, ThreadOpts{Affinity: NewCPUSet(0)})
	e.run(100 * sim.Millisecond)
	w := e.s.WastedCoreTime()
	if w < 90*sim.Millisecond {
		t.Fatalf("wasted = %v, want ~100ms", w)
	}
}
