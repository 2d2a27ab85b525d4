package machine

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

func newM(topo *topology.Topology) *Machine {
	return New(topo, sched.DefaultConfig().WithFixes(sched.AllFixes()), 7)
}

func TestComputeAndExit(t *testing.T) {
	m := newM(topology.SMP(1))
	p := m.NewProc("p", ProcOpts{})
	th := p.Spawn(NewProgram().Compute(10*sim.Millisecond).Build(), SpawnOpts{})
	end, ok := m.RunUntilDone(sim.Second, p)
	if !ok {
		t.Fatal("proc did not finish")
	}
	if end < 10*sim.Millisecond || end > 11*sim.Millisecond {
		t.Fatalf("finish at %v, want ~10ms", end)
	}
	if th.WorkDone() != 10*sim.Millisecond {
		t.Fatalf("workDone = %v", th.WorkDone())
	}
	if !p.Done() || p.Makespan() == 0 {
		t.Fatal("proc accounting wrong")
	}
}

func TestTwoComputeThreadsShareOneCPU(t *testing.T) {
	m := newM(topology.SMP(1))
	p := m.NewProc("p", ProcOpts{})
	prog := NewProgram().Compute(50 * sim.Millisecond).Build()
	p.Spawn(prog, SpawnOpts{})
	p.Spawn(prog, SpawnOpts{})
	end, ok := m.RunUntilDone(sim.Second, p)
	if !ok {
		t.Fatal("did not finish")
	}
	// 100ms of work on one CPU: finishes at ~100ms.
	if end < 99*sim.Millisecond || end > 110*sim.Millisecond {
		t.Fatalf("finish at %v, want ~100ms", end)
	}
}

func TestComputeSpreadAcrossCPUs(t *testing.T) {
	m := newM(topology.SMP(4))
	p := m.NewProc("p", ProcOpts{})
	prog := NewProgram().Compute(50 * sim.Millisecond).Build()
	for i := 0; i < 4; i++ {
		p.SpawnOn(0, prog, SpawnOpts{}) // all forked on cpu0
	}
	end, ok := m.RunUntilDone(sim.Second, p)
	if !ok {
		t.Fatal("did not finish")
	}
	// Balancing spreads them: ~50ms, allow slack for the spread delay.
	if end > 80*sim.Millisecond {
		t.Fatalf("finish at %v, want ~50-80ms (parallel)", end)
	}
}

func TestSleepWakes(t *testing.T) {
	m := newM(topology.SMP(1))
	p := m.NewProc("p", ProcOpts{})
	p.Spawn(NewProgram().
		Compute(sim.Millisecond).
		Sleep(20*sim.Millisecond).
		Compute(sim.Millisecond).
		Build(), SpawnOpts{})
	end, ok := m.RunUntilDone(sim.Second, p)
	if !ok {
		t.Fatal("did not finish")
	}
	if end < 22*sim.Millisecond || end > 30*sim.Millisecond {
		t.Fatalf("finish at %v, want ~22ms", end)
	}
}

func TestRepeatLoops(t *testing.T) {
	m := newM(topology.SMP(1))
	p := m.NewProc("p", ProcOpts{})
	th := p.Spawn(NewProgram().
		Repeat(5, func(b *Builder) { b.Compute(2 * sim.Millisecond) }).
		Build(), SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	if th.WorkDone() != 10*sim.Millisecond {
		t.Fatalf("workDone = %v, want 10ms (5 iterations)", th.WorkDone())
	}
}

func TestNestedRepeat(t *testing.T) {
	m := newM(topology.SMP(1))
	p := m.NewProc("p", ProcOpts{})
	th := p.Spawn(NewProgram().
		Repeat(3, func(b *Builder) {
			b.Repeat(4, func(b *Builder) { b.Compute(sim.Millisecond) })
		}).
		Build(), SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	if th.WorkDone() != 12*sim.Millisecond {
		t.Fatalf("workDone = %v, want 12ms (3x4)", th.WorkDone())
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	m := newM(topology.SMP(4))
	p := m.NewProc("p", ProcOpts{})
	l := m.NewSpinLock()
	prog := NewProgram().
		Repeat(10, func(b *Builder) {
			b.Lock(l).Compute(sim.Millisecond).Unlock(l)
		}).
		Build()
	for i := 0; i < 4; i++ {
		p.Spawn(prog, SpawnOpts{})
	}
	end, ok := m.RunUntilDone(2*sim.Second, p)
	if !ok {
		t.Fatal("did not finish")
	}
	// 40 serialized 1ms critical sections: at least 40ms.
	if end < 40*sim.Millisecond {
		t.Fatalf("finish at %v: critical sections overlapped", end)
	}
	if l.Acquisitions != 40 {
		t.Fatalf("acquisitions = %d, want 40", l.Acquisitions)
	}
}

func TestSpinBarrierSynchronizes(t *testing.T) {
	m := newM(topology.SMP(4))
	p := m.NewProc("p", ProcOpts{})
	bar := m.NewSpinBarrier(4)
	// Threads with different phase lengths: each iteration ends at the
	// barrier, so total time is the sum of per-iteration maxima.
	for i := 0; i < 4; i++ {
		dur := sim.Time(i+1) * sim.Millisecond // 1..4ms
		p.Spawn(NewProgram().
			Repeat(5, func(b *Builder) { b.Compute(dur).Barrier(bar) }).
			Build(), SpawnOpts{})
	}
	end, ok := m.RunUntilDone(sim.Second, p)
	if !ok {
		t.Fatal("did not finish")
	}
	if bar.Completions != 5 {
		t.Fatalf("barrier completions = %d, want 5", bar.Completions)
	}
	// Each iteration is gated by the slowest (4ms): >= 20ms.
	if end < 20*sim.Millisecond {
		t.Fatalf("finish at %v: barrier failed to gate", end)
	}
}

func TestBarrierWithOversubscription(t *testing.T) {
	// 4 barrier threads on 2 cpus: spinning arrivals burn the timeslice
	// while not-yet-arrived threads wait in runqueues — iterations cost
	// far more than 2x the grain (the §3.2 mechanism).
	m := newM(topology.SMP(2))
	p := m.NewProc("p", ProcOpts{})
	bar := m.NewSpinBarrier(4)
	prog := NewProgram().
		Repeat(10, func(b *Builder) { b.Compute(200 * sim.Microsecond).Barrier(bar) }).
		Build()
	for i := 0; i < 4; i++ {
		p.Spawn(prog, SpawnOpts{})
	}
	end, ok := m.RunUntilDone(5*sim.Second, p)
	if !ok {
		t.Fatal("did not finish")
	}
	// Pure compute would be 10 iters x 2 rounds x 200us = 4ms; spinning
	// under oversubscription must make it much worse.
	if end < 12*sim.Millisecond {
		t.Fatalf("finish at %v: expected heavy spin overhead", end)
	}
	var spin sim.Time
	for _, th := range p.Threads() {
		spin += th.SpinTime()
	}
	if spin == 0 {
		t.Fatal("no spin time recorded")
	}
}

func TestWaitSignal(t *testing.T) {
	m := newM(topology.SMP(2))
	p := m.NewProc("p", ProcOpts{})
	q := m.NewWaitQueue()
	consumer := p.Spawn(NewProgram().
		Wait(q).
		Compute(sim.Millisecond).
		Build(), SpawnOpts{})
	p.Spawn(NewProgram().
		Compute(5*sim.Millisecond).
		Signal(q).
		Compute(sim.Millisecond).
		Build(), SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatalf("did not finish; consumer state=%v", consumer.T.State())
	}
	if consumer.FinishedAt() < 6*sim.Millisecond {
		t.Fatalf("consumer finished at %v, before being signaled", consumer.FinishedAt())
	}
	if q.Signals != 1 || q.LostSignals != 0 {
		t.Fatalf("signals=%d lost=%d", q.Signals, q.LostSignals)
	}
}

func TestSignalAllWakesEveryone(t *testing.T) {
	m := newM(topology.SMP(4))
	p := m.NewProc("p", ProcOpts{})
	q := m.NewWaitQueue()
	for i := 0; i < 3; i++ {
		p.Spawn(NewProgram().Wait(q).Compute(sim.Millisecond).Build(), SpawnOpts{})
	}
	p.Spawn(NewProgram().
		Compute(3*sim.Millisecond).
		SignalAll(q).
		Build(), SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
}

func TestLostSignal(t *testing.T) {
	m := newM(topology.SMP(2))
	p := m.NewProc("p", ProcOpts{})
	q := m.NewWaitQueue()
	p.Spawn(NewProgram().Signal(q).Build(), SpawnOpts{}) // no waiter yet
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	if q.LostSignals != 1 {
		t.Fatalf("lost signals = %d, want 1", q.LostSignals)
	}
}

func TestWorkQueuePopPushDrain(t *testing.T) {
	m := newM(topology.SMP(4))
	p := m.NewProc("p", ProcOpts{})
	q := m.NewWorkQueue()
	// Three workers loop popping tasks.
	worker := NewProgram().
		Repeat(100, func(b *Builder) { b.Pop(q) }).
		Build()
	for i := 0; i < 3; i++ {
		p.Spawn(worker, SpawnOpts{Name: "worker"})
	}
	coord := m.NewProc("coord", ProcOpts{})
	coord.Spawn(NewProgram().
		Push(q, 30, sim.Millisecond).
		Drain(q).
		Compute(sim.Millisecond).
		Build(), SpawnOpts{Name: "coord"})
	m.Run(sim.Second)
	if q.Completed != 30 {
		t.Fatalf("completed = %d, want 30", q.Completed)
	}
	if !q.Idle() {
		t.Fatal("queue not idle")
	}
	if !coord.Done() {
		t.Fatal("coordinator stuck in drain")
	}
	// 30ms of tasks on 3 workers: ~10ms elapsed for the drain.
	if coord.FinishedAt() > 30*sim.Millisecond {
		t.Fatalf("coordinator finished at %v, want ~11ms", coord.FinishedAt())
	}
}

func TestWorkQueueBlocksWhenEmpty(t *testing.T) {
	m := newM(topology.SMP(2))
	p := m.NewProc("p", ProcOpts{})
	q := m.NewWorkQueue()
	w := p.Spawn(NewProgram().Pop(q).Build(), SpawnOpts{})
	m.Run(10 * sim.Millisecond)
	if w.T.State() != sched.StateBlocked {
		t.Fatalf("worker state = %v, want blocked on empty queue", w.T.State())
	}
	// Producer arrives later.
	prod := m.NewProc("prod", ProcOpts{})
	prod.Spawn(NewProgram().Push(q, 1, sim.Millisecond).Build(), SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p, prod); !ok {
		t.Fatal("did not finish")
	}
}

func TestEfficiencyCapLimitsThroughput(t *testing.T) {
	// 8 threads, cap 2: aggregate throughput is 2 cores' worth even on 8
	// cpus, so 8x10ms of work takes ~40ms instead of ~10ms.
	m := newM(topology.SMP(8))
	capped := m.NewProc("capped", ProcOpts{Cap: 2})
	prog := NewProgram().Compute(10 * sim.Millisecond).Build()
	for i := 0; i < 8; i++ {
		capped.Spawn(prog, SpawnOpts{})
	}
	end, ok := m.RunUntilDone(sim.Second, capped)
	if !ok {
		t.Fatal("did not finish")
	}
	if end < 38*sim.Millisecond || end > 50*sim.Millisecond {
		t.Fatalf("capped finish at %v, want ~40ms", end)
	}
}

func TestUncappedProcFullSpeed(t *testing.T) {
	m := newM(topology.SMP(8))
	p := m.NewProc("p", ProcOpts{})
	prog := NewProgram().Compute(10 * sim.Millisecond).Build()
	for i := 0; i < 8; i++ {
		p.Spawn(prog, SpawnOpts{})
	}
	end, ok := m.RunUntilDone(sim.Second, p)
	if !ok {
		t.Fatal("did not finish")
	}
	if end > 15*sim.Millisecond {
		t.Fatalf("uncapped finish at %v, want ~10ms", end)
	}
}

func TestHotplugInterface(t *testing.T) {
	m := newM(topology.SMP(4))
	if err := m.DisableCore(3); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableCore(3); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableCore(3); err == nil {
		t.Fatal("double enable should fail")
	}
}

func TestProcsAccessors(t *testing.T) {
	m := newM(topology.SMP(2))
	p := m.NewProc("alpha", ProcOpts{})
	if p.Name() != "alpha" || p.ID() != 0 {
		t.Fatal("proc identity wrong")
	}
	if p.Group() == nil {
		t.Fatal("proc should have its own autogroup")
	}
	shared := m.NewProc("beta", ProcOpts{SharedGroup: true})
	if shared.Group() != nil {
		t.Fatal("shared proc should use the root group")
	}
	if len(m.Procs()) != 2 {
		t.Fatal("Procs() wrong")
	}
}

func TestOnDoneCallback(t *testing.T) {
	m := newM(topology.SMP(1))
	called := false
	p := m.NewProc("p", ProcOpts{OnDone: func(*Proc) { called = true }})
	p.Spawn(NewProgram().Compute(sim.Millisecond).Build(), SpawnOpts{})
	m.RunUntilDone(sim.Second, p)
	if !called {
		t.Fatal("OnDone not invoked")
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() sim.Time {
		m := newM(topology.TwoNode(4))
		p := m.NewProc("p", ProcOpts{})
		bar := m.NewSpinBarrier(8)
		prog := NewProgram().
			Repeat(20, func(b *Builder) { b.Compute(300 * sim.Microsecond).Barrier(bar) }).
			Build()
		for i := 0; i < 8; i++ {
			p.SpawnOn(0, prog, SpawnOpts{})
		}
		end, ok := m.RunUntilDone(5*sim.Second, p)
		if !ok {
			t.Fatal("did not finish")
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := OpCompute; k <= OpExit; k++ {
		if k.String() == "" {
			t.Fatalf("no name for op %d", k)
		}
	}
}

func TestProgramBuilderEmptyRepeat(t *testing.T) {
	prog := NewProgram().Repeat(0, func(b *Builder) { b.Compute(1) }).Build()
	if len(prog) != 1 || prog[0].Kind != OpExit {
		t.Fatalf("empty repeat should produce only Exit: %+v", prog)
	}
	prog = NewProgram().Repeat(3, func(b *Builder) {}).Build()
	if len(prog) != 1 {
		t.Fatalf("repeat with empty body should be dropped: %+v", prog)
	}
}

func TestPushTreeFansOut(t *testing.T) {
	m := newM(topology.SMP(4))
	p := m.NewProc("p", ProcOpts{})
	q := m.NewWorkQueue()
	worker := NewProgram().
		Repeat(1000, func(b *Builder) { b.Pop(q) }).
		Build()
	for i := 0; i < 4; i++ {
		p.Spawn(worker, SpawnOpts{})
	}
	coord := m.NewProc("coord", ProcOpts{})
	coord.Spawn(NewProgram().
		PushTree(q, 1, sim.Millisecond, 2, 2). // 1 + 2 + 4 = 7 tasks
		Drain(q).
		Build(), SpawnOpts{})
	m.Run(sim.Second)
	if q.Completed != 7 {
		t.Fatalf("completed = %d, want 7 (1+2+4 tree)", q.Completed)
	}
	if !coord.Done() {
		t.Fatal("coordinator not done")
	}
}

func TestWorkerWakesWorker(t *testing.T) {
	// With tree tasks, child wakeups come from workers, not the
	// coordinator: at least one wakeup's waker must be a worker thread.
	m := newM(topology.SMP(2))
	p := m.NewProc("p", ProcOpts{})
	q := m.NewWorkQueue()
	worker := NewProgram().Repeat(100, func(b *Builder) { b.Pop(q) }).Build()
	w0 := p.Spawn(worker, SpawnOpts{Name: "w0"})
	w1 := p.Spawn(worker, SpawnOpts{Name: "w1"})
	m.Run(5 * sim.Millisecond) // both block on the empty queue
	coord := m.NewProc("coord", ProcOpts{})
	coord.Spawn(NewProgram().
		PushTree(q, 1, 2*sim.Millisecond, 1, 3).
		Drain(q).
		Build(), SpawnOpts{})
	m.Run(sim.Second)
	if q.Completed != 4 {
		t.Fatalf("completed = %d, want 4 (chain of 4)", q.Completed)
	}
	if w0.T.Wakeups()+w1.T.Wakeups() < 3 {
		t.Fatalf("workers woken %d times, want >= 3", w0.T.Wakeups()+w1.T.Wakeups())
	}
}

// TestWorkQueueReusesBuffer: pops advance a head index and clear the
// slot they leave, and the queue rewinds when it empties, so a queue
// that fills and drains in cycles keeps one buffer and, once warm,
// allocates nothing. Tasks still come out in push order across the
// slide-down of a buffer that fills behind a popped prefix.
func TestWorkQueueReusesBuffer(t *testing.T) {
	q := &WorkQueue{}
	hook := func() {}
	next, want := 0, 0
	cycle := func() {
		for round := 0; round < 8; round++ {
			for i := 0; i < 5; i++ {
				q.push(Task{Dur: sim.Time(next), OnDone: hook})
				next++
			}
			for i := 0; i < 3; i++ {
				if got := q.pop(); got.Dur != sim.Time(want) {
					t.Fatalf("popped task %d, want %d (FIFO)", got.Dur, want)
				}
				want++
			}
			for i, task := range q.tasks[:q.head] {
				if task.Dur != 0 || task.OnDone != nil {
					t.Fatalf("popped slot %d not cleared: %+v", i, task)
				}
			}
		}
		for q.Pending() > 0 {
			q.pop()
			want++
		}
		if q.head != 0 || len(q.tasks) != 0 {
			t.Fatalf("drained queue did not rewind: head %d len %d", q.head, len(q.tasks))
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("a warm push/pop/drain cycle allocates %.1f times, want 0", allocs)
	}
	if q.Pushed != uint64(next) {
		t.Fatalf("Pushed = %d, want %d", q.Pushed, next)
	}
}

// TestWorkQueueSaturatedPushIsAmortizedO1: a queue that never empties —
// its backlog held at the buffer's capacity while pushes and pops
// alternate, as in a saturated server — must not move its whole backlog
// on every push. Counting the tasks each push moves (a slide-down moves
// the pending tasks, a growth copies the buffer), the total stays within
// a constant per push, the buffer stays within a small multiple of the
// backlog, and tasks still come out in push order.
func TestWorkQueueSaturatedPushIsAmortizedO1(t *testing.T) {
	q := &WorkQueue{}
	next, want := 0, 0
	push := func() (moved int) {
		head, n, c := q.head, len(q.tasks), cap(q.tasks)
		q.push(Task{Dur: sim.Time(next)})
		next++
		switch {
		case cap(q.tasks) != c:
			moved = n
		case head > 0 && q.head == 0:
			moved = n - head
		}
		return moved
	}
	for len(q.tasks) < 64 || len(q.tasks) < cap(q.tasks) {
		push()
	}
	q.pop()
	want++
	backlog := q.Pending()
	const pushes = 10000
	moved := 0
	for i := 0; i < pushes; i++ {
		moved += push()
		if got := q.pop(); got.Dur != sim.Time(want) {
			t.Fatalf("popped task %d, want %d (FIFO)", got.Dur, want)
		}
		want++
	}
	if moved > 4*pushes {
		t.Fatalf("%d pushes at a backlog of %d moved %d tasks, want <= %d", pushes, backlog, moved, 4*pushes)
	}
	if cap(q.tasks) > 4*backlog {
		t.Fatalf("buffer grew to %d for a backlog of %d", cap(q.tasks), backlog)
	}
}
