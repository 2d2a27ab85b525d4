package machine

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file tests the VM edge cases: progress accounting across
// preemption, rate rebasing, spin-flag handoffs, and cross-primitive
// determinism.

func TestComputeProgressSurvivesPreemption(t *testing.T) {
	// Two threads on one CPU: each accumulates exactly its nominal work
	// despite interleaving.
	m := newM(topology.SMP(1))
	p := m.NewProc("p", ProcOpts{})
	a := p.Spawn(NewProgram().Compute(30*sim.Millisecond).Build(), SpawnOpts{})
	b := p.Spawn(NewProgram().Compute(30*sim.Millisecond).Build(), SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	if a.WorkDone() != 30*sim.Millisecond || b.WorkDone() != 30*sim.Millisecond {
		t.Fatalf("workDone: a=%v b=%v", a.WorkDone(), b.WorkDone())
	}
	// Wall time ~60ms: preemption cost no work.
	if a.T.SumExec()+b.T.SumExec() < 59*sim.Millisecond {
		t.Fatalf("exec lost: %v", a.T.SumExec()+b.T.SumExec())
	}
}

func TestRateRebaseAccountsExactly(t *testing.T) {
	// A capped proc whose running count changes mid-compute still
	// finishes with exact work accounting.
	m := newM(topology.SMP(4))
	p := m.NewProc("p", ProcOpts{Cap: 2})
	long := p.Spawn(NewProgram().Compute(20*sim.Millisecond).Build(), SpawnOpts{})
	m.Run(5 * sim.Millisecond) // long runs alone at rate 1
	// Two more threads join: rate drops to 2/3 for everyone.
	p.Spawn(NewProgram().Compute(10*sim.Millisecond).Build(), SpawnOpts{})
	p.Spawn(NewProgram().Compute(10*sim.Millisecond).Build(), SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	if long.WorkDone() != 20*sim.Millisecond {
		t.Fatalf("workDone = %v, want 20ms", long.WorkDone())
	}
	// Aggregate throughput was capped at 2: 40ms of work needs >= 20ms.
	if long.FinishedAt() < 20*sim.Millisecond {
		t.Fatalf("capped work finished too fast: %v", long.FinishedAt())
	}
}

func TestSpinFlagHandoff(t *testing.T) {
	m := newM(topology.SMP(2))
	p := m.NewProc("p", ProcOpts{})
	f := m.NewSpinFlag()
	consumer := p.Spawn(NewProgram().
		WaitFlag(f).
		Compute(sim.Millisecond).
		Build(), SpawnOpts{})
	p.Spawn(NewProgram().
		Compute(5*sim.Millisecond).
		PostFlag(f).
		Build(), SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	if consumer.FinishedAt() < 6*sim.Millisecond {
		t.Fatalf("consumer finished at %v before the post", consumer.FinishedAt())
	}
	if f.Posts != 1 || f.Waits != 1 || f.Tokens() != 0 {
		t.Fatalf("flag stats: posts=%d waits=%d tokens=%d", f.Posts, f.Waits, f.Tokens())
	}
	// The consumer spun while waiting (it held a CPU).
	if consumer.SpinTime() == 0 {
		t.Fatal("no spin time recorded for flag wait")
	}
}

func TestSpinFlagTokensAccumulate(t *testing.T) {
	// Posts before any waiter must not be lost (counting semantics).
	m := newM(topology.SMP(2))
	p := m.NewProc("p", ProcOpts{})
	f := m.NewSpinFlag()
	p.Spawn(NewProgram().
		PostFlag(f).PostFlag(f).PostFlag(f).
		Build(), SpawnOpts{})
	m.Run(5 * sim.Millisecond)
	if f.Tokens() != 3 {
		t.Fatalf("tokens = %d, want 3", f.Tokens())
	}
	late := p.Spawn(NewProgram().
		WaitFlag(f).WaitFlag(f).WaitFlag(f).
		Compute(sim.Millisecond).
		Build(), SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("late consumer stuck")
	}
	if late.SpinTime() != 0 {
		t.Fatalf("tokens were banked; no spinning expected, got %v", late.SpinTime())
	}
}

func TestPipelineOrdering(t *testing.T) {
	// A 4-stage flag pipeline completes in order: stage i finishes no
	// earlier than stage i-1's first post allows.
	m := newM(topology.SMP(4))
	p := m.NewProc("p", ProcOpts{})
	flags := []*SpinFlag{m.NewSpinFlag(), m.NewSpinFlag(), m.NewSpinFlag(), m.NewSpinFlag()}
	var stages []*MThread
	for i := 0; i < 4; i++ {
		b := NewProgram()
		if i > 0 {
			b.WaitFlag(flags[i])
		}
		b.Compute(2 * sim.Millisecond)
		if i < 3 {
			b.PostFlag(flags[i+1])
		}
		stages = append(stages, p.Spawn(b.Build(), SpawnOpts{}))
	}
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("pipeline stuck")
	}
	for i := 1; i < 4; i++ {
		if stages[i].FinishedAt() < stages[i-1].FinishedAt() {
			t.Fatalf("stage %d finished before stage %d", i, i-1)
		}
	}
	// Serialized: at least 4 x 2ms.
	if stages[3].FinishedAt() < 8*sim.Millisecond {
		t.Fatalf("pipeline not serialized: %v", stages[3].FinishedAt())
	}
}

func TestAdaptiveBarrierBlocks(t *testing.T) {
	// With a short spin window and a long straggler, waiters must
	// convert to blocked (freeing their CPUs).
	m := newM(topology.SMP(4))
	p := m.NewProc("p", ProcOpts{})
	bar := m.NewAdaptiveBarrier(4, 100*sim.Microsecond)
	fast := NewProgram().Compute(sim.Millisecond).Barrier(bar).Build()
	slow := NewProgram().Compute(20 * sim.Millisecond).Barrier(bar).Build()
	for i := 0; i < 3; i++ {
		p.Spawn(fast, SpawnOpts{})
	}
	p.Spawn(slow, SpawnOpts{})
	m.Run(10 * sim.Millisecond)
	// The three fast arrivals blocked; their CPUs are free for others.
	if bar.Blocks != 3 {
		t.Fatalf("blocks = %d, want 3", bar.Blocks)
	}
	idle := 0
	for c := topology.CoreID(0); c < 4; c++ {
		if m.Sched.IsIdle(c) {
			idle++
		}
	}
	if idle != 3 {
		t.Fatalf("idle cores = %d, want 3 (blocked waiters release CPUs)", idle)
	}
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("barrier never released")
	}
}

func TestPureSpinBarrierNeverBlocks(t *testing.T) {
	m := newM(topology.SMP(4))
	p := m.NewProc("p", ProcOpts{})
	bar := m.NewSpinBarrier(2)
	p.Spawn(NewProgram().Compute(sim.Millisecond).Barrier(bar).Build(), SpawnOpts{})
	p.Spawn(NewProgram().Compute(10*sim.Millisecond).Barrier(bar).Build(), SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	if bar.Blocks != 0 {
		t.Fatalf("pure spin barrier blocked %d times", bar.Blocks)
	}
}

func TestLockFairnessUnderContention(t *testing.T) {
	// Four threads hammer one lock; each gets a comparable number of
	// acquisitions (no starvation).
	m := newM(topology.SMP(4))
	p := m.NewProc("p", ProcOpts{})
	l := m.NewSpinLock()
	prog := NewProgram().
		Repeat(25, func(b *Builder) {
			b.Lock(l).Compute(100 * sim.Microsecond).Unlock(l).Compute(100 * sim.Microsecond)
		}).
		Build()
	var ths []*MThread
	for i := 0; i < 4; i++ {
		ths = append(ths, p.Spawn(prog, SpawnOpts{}))
	}
	if _, ok := m.RunUntilDone(5*sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	// All finished: each made its 25 acquisitions.
	if l.Acquisitions != 100 {
		t.Fatalf("acquisitions = %d, want 100", l.Acquisitions)
	}
	for i, th := range ths {
		if !th.Done() {
			t.Fatalf("thread %d starved", i)
		}
	}
}

// TestPropertyVMDeterminism: any mix of primitives yields identical
// makespans across runs with the same seed.
func TestPropertyVMDeterminism(t *testing.T) {
	build := func(seedByte uint8) func() sim.Time {
		return func() sim.Time {
			m := New(topology.TwoNode(2), sched.DefaultConfig(), int64(seedByte))
			p := m.NewProc("p", ProcOpts{})
			l := m.NewSpinLock()
			bar := m.NewAdaptiveBarrier(4, 200*sim.Microsecond)
			q := m.NewWorkQueue()
			worker := NewProgram().
				Repeat(6, func(b *Builder) {
					b.Lock(l).Compute(50 * sim.Microsecond).Unlock(l)
					b.Compute(sim.Time(seedByte%7+1) * 100 * sim.Microsecond)
					b.Barrier(bar)
				}).
				Build()
			for i := 0; i < 4; i++ {
				p.Spawn(worker, SpawnOpts{})
			}
			coord := m.NewProc("c", ProcOpts{})
			coord.Spawn(NewProgram().
				Push(q, 3, sim.Millisecond).
				Build(), SpawnOpts{})
			end, ok := m.RunUntilDone(10*sim.Second, p, coord)
			if !ok {
				return -1
			}
			return end
		}
	}
	f := func(seedByte uint8) bool {
		run := build(seedByte)
		a := run()
		b := run()
		return a == b && a > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkDoneConservation(t *testing.T) {
	// Total work completed equals the sum of task/compute durations
	// issued, even with preemption, migration and caps.
	m := newM(topology.TwoNode(2))
	p := m.NewProc("p", ProcOpts{Cap: 3})
	prog := NewProgram().
		Repeat(10, func(b *Builder) { b.Compute(700 * sim.Microsecond) }).
		Build()
	for i := 0; i < 6; i++ {
		p.SpawnOn(0, prog, SpawnOpts{})
	}
	if _, ok := m.RunUntilDone(5*sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	var total sim.Time
	for _, th := range p.Threads() {
		total += th.WorkDone()
	}
	want := 6 * 10 * 700 * sim.Microsecond
	if total != want {
		t.Fatalf("workDone total = %v, want %v", total, want)
	}
}

// TestScriptedDurations: a rolled loop's scripted compute and sleep take
// their thread's script entries in order, one per execution, and two
// threads sharing one program read their own scripts.
func TestScriptedDurations(t *testing.T) {
	m := newM(topology.SMP(2))
	p := m.NewProc("p", ProcOpts{})
	prog := NewProgram().Repeat(3, func(b *Builder) { b.ScriptedCompute().ScriptedSleep() }).Build()
	const ms = sim.Millisecond
	a := p.Spawn(prog, SpawnOpts{Script: []sim.Time{1 * ms, 9 * ms, 2 * ms, 9 * ms, 3 * ms, 9 * ms}})
	b := p.Spawn(prog, SpawnOpts{Script: []sim.Time{4 * ms, 1 * ms, 5 * ms, 1 * ms, 6 * ms, 1 * ms}})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	if a.WorkDone() != 6*ms || b.WorkDone() != 15*ms {
		t.Fatalf("work done %v and %v, want 6ms and 15ms", a.WorkDone(), b.WorkDone())
	}
	if a.FinishedAt() < 33*ms || b.FinishedAt() < 18*ms {
		t.Fatalf("finished at %v and %v, want at least 33ms and 18ms (compute plus sleep)", a.FinishedAt(), b.FinishedAt())
	}
}

// TestScriptOverrunPanics: a scripted instruction that finds its
// thread's script used up panics naming the thread and its pc, not with
// a bare index out of range.
func TestScriptOverrunPanics(t *testing.T) {
	m := newM(topology.SMP(1))
	p := m.NewProc("p", ProcOpts{})
	prog := NewProgram().Repeat(3, func(b *Builder) { b.ScriptedCompute().ScriptedSleep() }).Build()
	p.Spawn(prog, SpawnOpts{Name: "short", Script: []sim.Time{1, 2, 3, 4, 5}}) // the last sleep has none
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `thread "short"`) || !strings.Contains(msg, "pc 1:") {
			t.Fatalf("panic %q, want one naming thread \"short\" at pc 1", msg)
		}
	}()
	m.RunUntilDone(sim.Second, p)
	t.Fatal("a script overrun did not panic")
}
