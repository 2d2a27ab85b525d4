package sched

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Unit tests for the per-CPU CFS mechanics: slice computation, vruntime
// placement, tick preemption, and the NOHZ balancer role lifecycle.

func TestSliceForEqualWeights(t *testing.T) {
	e := newEnv(topology.SMP(1), DefaultConfig())
	a := e.hog("a", 0, ThreadOpts{})
	b := e.hog("b", 0, ThreadOpts{})
	e.run(2 * sim.Millisecond)
	c := e.s.cpus[0]
	// Two nice-0 threads: each gets half the 6ms latency period.
	slice := e.s.sliceFor(c, c.curr)
	if slice != 3*sim.Millisecond {
		t.Fatalf("slice = %v, want 3ms", slice)
	}
	_, _ = a, b
}

func TestSliceForWeighted(t *testing.T) {
	e := newEnv(topology.SMP(1), DefaultConfig())
	heavy := e.hog("h", 0, ThreadOpts{Nice: -5}) // weight 3121
	e.hog("l", 0, ThreadOpts{Nice: 5})           // weight 335
	e.run(2 * sim.Millisecond)
	c := e.s.cpus[0]
	slice := e.s.sliceFor(c, heavy)
	// heavy's share: 6ms * 3121/3456 ~ 5.42ms.
	period := float64(6 * sim.Millisecond)
	want := sim.Time(period * 3121.0 / 3456.0)
	diff := slice - want
	if diff < -sim.Microsecond || diff > sim.Microsecond {
		t.Fatalf("slice = %v, want ~%v", slice, want)
	}
}

func TestSlicePeriodStretches(t *testing.T) {
	// More than NrLatency (8) runnable threads stretch the period to
	// nr x MinGranularity.
	e := newEnv(topology.SMP(1), DefaultConfig())
	for i := 0; i < 12; i++ {
		e.hog("h", 0, ThreadOpts{})
	}
	e.run(2 * sim.Millisecond)
	c := e.s.cpus[0]
	slice := e.s.sliceFor(c, c.curr)
	// period = 12 * 0.75ms = 9ms; share = 9/12 = 0.75ms.
	if slice != 750*sim.Microsecond {
		t.Fatalf("slice = %v, want 750µs", slice)
	}
}

func TestSliceClampedToMinGranularity(t *testing.T) {
	e := newEnv(topology.SMP(1), DefaultConfig())
	light := e.hog("l", 0, ThreadOpts{Nice: 19}) // weight 15
	e.hog("h", 0, ThreadOpts{Nice: -10})         // weight 9548
	e.run(2 * sim.Millisecond)
	c := e.s.cpus[0]
	slice := e.s.sliceFor(c, light)
	if slice != e.s.cfg.MinGranularity {
		t.Fatalf("slice = %v, want clamp at %v", slice, e.s.cfg.MinGranularity)
	}
}

func TestWakeupVruntimeClamp(t *testing.T) {
	// A long sleeper gets at most half a latency period of credit
	// (GENTLE_FAIR_SLEEPERS): it cannot monopolize the CPU on wake.
	e := newEnv(topology.SMP(1), DefaultConfig())
	sleeper := e.hog("s", 0, ThreadOpts{})
	e.run(2 * sim.Millisecond)
	e.eng.After(0, func() { e.s.BlockCurrent(sleeper, StateSleeping) })
	e.run(sim.Millisecond)
	hog := e.hog("h", 0, ThreadOpts{})
	e.run(200 * sim.Millisecond) // hog builds up vruntime
	e.eng.After(0, func() { e.s.Wake(sleeper, nil) })
	e.run(sim.Millisecond)
	floor := e.s.cpus[0].rq.minVruntime - e.s.cfg.Latency/2
	if sleeper.Vruntime() < floor-sim.Microsecond {
		t.Fatalf("sleeper vruntime %v below clamp floor %v", sleeper.Vruntime(), floor)
	}
	// It still preempts (has credit), but bounded: within ~2 slices the
	// hog runs again.
	e.run(10 * sim.Millisecond)
	if hog.SumExec() == 0 {
		t.Fatal("hog starved after sleeper woke")
	}
}

func TestTickPreemptionAfterSlice(t *testing.T) {
	e := newEnv(topology.SMP(1), DefaultConfig())
	a := e.hog("a", 0, ThreadOpts{})
	b := e.hog("b", 0, ThreadOpts{})
	// Slice is 3ms; by 5ms both threads must have run.
	e.run(5 * sim.Millisecond)
	if a.SumExec() == 0 || b.SumExec() == 0 {
		t.Fatalf("tick preemption failed: a=%v b=%v", a.SumExec(), b.SumExec())
	}
}

func TestNohzBalancerRoleLapsesWhenBusy(t *testing.T) {
	e := newEnv(topology.SMP(4), DefaultConfig())
	// Overload cpu0 so it kicks a balancer.
	for i := 0; i < 4; i++ {
		e.hog("h", 0, ThreadOpts{})
	}
	e.run(3 * sim.Millisecond)
	// A balancer was kicked at some point.
	if e.s.Counters().NohzKicks == 0 {
		t.Fatal("no NOHZ kick")
	}
	e.run(100 * sim.Millisecond)
	// Steady state: all cores busy, so no core holds the balancer role
	// (it lapses when the balancer picks up work).
	if e.s.nohzBalancer != -1 {
		c := e.s.cpus[e.s.nohzBalancer]
		if c.curr != nil {
			t.Fatalf("busy cpu %d still holds the balancer role", e.s.nohzBalancer)
		}
	}
}

func TestTicklessIdleCoresDoNotTick(t *testing.T) {
	e := newEnv(topology.SMP(4), DefaultConfig()) // NOHZ on
	e.hog("h", 0, ThreadOpts{Affinity: NewCPUSet(0)})
	e.run(50 * sim.Millisecond)
	// cpus 1-3 idle; at most one (a kicked balancer) may be ticking.
	ticking := 0
	for _, c := range e.s.cpus[1:] {
		if c.tickTm.Pending() {
			ticking++
		}
	}
	if ticking > 1 {
		t.Fatalf("%d idle cores ticking under NOHZ, want <= 1 (the balancer)", ticking)
	}
}

func TestIdleListOrdering(t *testing.T) {
	e := newEnv(topology.SMP(4), DefaultConfig())
	// Occupy then release cores at different times; the idle list must
	// be ordered by idle-since (longest first).
	t0 := e.hog("a", 1, ThreadOpts{Affinity: NewCPUSet(1)})
	t1 := e.hog("b", 2, ThreadOpts{Affinity: NewCPUSet(2)})
	e.run(5 * sim.Millisecond)
	e.eng.After(0, func() { e.s.ExitCurrent(t0) })
	e.run(5 * sim.Millisecond)
	e.eng.After(0, func() { e.s.ExitCurrent(t1) })
	e.run(5 * sim.Millisecond)
	// Order: 0 and 3 idle since boot, then 1, then 2.
	idx := map[topology.CoreID]int{}
	for i, id := range e.s.idleOrder() {
		idx[id] = i
	}
	if !(idx[0] < idx[1] && idx[1] < idx[2]) {
		t.Fatalf("idle list out of order: %v", e.s.idleOrder())
	}
}

func TestRunqueueWeightAccounting(t *testing.T) {
	e := newEnv(topology.SMP(1), DefaultConfig())
	a := e.hog("a", 0, ThreadOpts{Nice: 0})
	b := e.hog("b", 0, ThreadOpts{Nice: 5})
	e.run(2 * sim.Millisecond)
	rq := &e.s.cpus[0].rq
	curr := e.s.cpus[0].curr
	wantQueued := a.Weight() + b.Weight() - curr.Weight()
	if rq.queuedWt != wantQueued {
		t.Fatalf("queuedWt = %d, want %d", rq.queuedWt, wantQueued)
	}
	e.eng.After(0, func() { e.s.ExitCurrent(e.s.cpus[0].curr) })
	e.run(2 * sim.Millisecond)
	if rq.queuedWt != 0 {
		t.Fatalf("queuedWt after exit = %d, want 0 (one thread running)", rq.queuedWt)
	}
}

func TestEmitSnapshotInactiveRecorder(t *testing.T) {
	e := newEnv(topology.SMP(2), DefaultConfig())
	// Without a recorder (or inactive), EmitSnapshot is a no-op.
	e.s.EmitSnapshot() // must not panic with nil recorder
}

func TestStealOne(t *testing.T) {
	e := newEnv(topology.SMP(2), DefaultConfig())
	e.hog("a", 0, ThreadOpts{Affinity: NewCPUSet(0)})
	pinned := e.hog("b", 0, ThreadOpts{Affinity: NewCPUSet(0)})
	free := e.hog("c", 0, ThreadOpts{})
	e.run(500 * sim.Microsecond) // before any balancing tick
	// StealOne must take an allowed thread only.
	if !e.s.StealOne(1, 0) {
		t.Fatal("StealOne failed with stealable thread present")
	}
	if free.CPU() != 1 && pinned.CPU() == 1 {
		t.Fatal("StealOne moved a pinned thread")
	}
	if e.s.StealOne(1, 1) {
		t.Fatal("StealOne from self should fail")
	}
}
