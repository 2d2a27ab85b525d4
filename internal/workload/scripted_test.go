package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// unrolledNAS is the reference for NASApp.Launch: the same process, sync
// objects and jitter draws, but every iteration unrolled into each
// thread's own program with its durations written into the
// instructions.
func unrolledNAS(a NASApp, m *machine.Machine, opts NASLaunchOpts) *machine.Proc {
	iters := a.Iterations
	if opts.Scale > 0 {
		iters = max(int(float64(iters)*opts.Scale), 1)
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ nameSeed(a.Name)))
	p := m.NewProc(a.Name, machine.ProcOpts{Cap: a.Cap})
	grain := max(a.Grain*RefThreads/sim.Time(opts.Threads), sim.Microsecond)
	stall := a.Stall * RefThreads / sim.Time(opts.Threads)
	crit := a.CritSec * RefThreads / sim.Time(opts.Threads)

	var bar *machine.SpinBarrier
	var locks []*machine.SpinLock
	var flags, back []*machine.SpinFlag
	switch a.Sync {
	case SyncBarrier:
		bar = m.NewAdaptiveBarrier(opts.Threads, a.BarrierBlockAfter)
	case SyncLockBarrier:
		bar = m.NewAdaptiveBarrier(opts.Threads, a.BarrierBlockAfter)
		for i := 0; i < max(opts.Threads/16, 1); i++ {
			locks = append(locks, m.NewSpinLock())
		}
	case SyncPipeline:
		for i := 0; i < opts.Threads; i++ {
			flags = append(flags, m.NewSpinFlag())
		}
		for i := 0; i < opts.Threads; i++ {
			back = append(back, m.NewSpinFlag())
		}
	}

	for i := 0; i < opts.Threads; i++ {
		b := machine.NewProgram()
		for it := 0; it < iters; it++ {
			if flags != nil && i > 0 {
				b.WaitFlag(flags[i])
			}
			b.Compute(jitter(rng, grain, a.Jitter))
			if stall > 0 {
				b.Sleep(jitter(rng, stall, a.Jitter))
			}
			if len(locks) > 0 {
				lock := locks[i%len(locks)]
				b.Lock(lock).Compute(crit).Unlock(lock)
			}
			if flags != nil {
				if i > 0 {
					b.PostFlag(back[i])
				}
				if i < opts.Threads-1 {
					if it >= pipelineWindow {
						b.WaitFlag(back[i+1])
					}
					b.PostFlag(flags[i+1])
				}
			}
			if bar != nil {
				b.Barrier(bar)
			}
		}
		p.SpawnOn(opts.SpawnCore, b.Build(), machine.SpawnOpts{Name: a.Name, Affinity: opts.Affinity})
	}
	return p
}

// unrolledMake is the reference for LaunchMake, unrolled the same way.
func unrolledMake(m *machine.Machine, opts MakeOpts) *machine.Proc {
	rng := rand.New(rand.NewSource(opts.Seed))
	p := m.NewProc("make", machine.ProcOpts{})
	for i := 0; i < opts.Threads; i++ {
		b := machine.NewProgram()
		for j := 0; j < opts.JobsPerThread; j++ {
			b.Compute(jitter(rng, opts.JobGrain, 0.5))
			b.Sleep(jitter(rng, 300*sim.Microsecond, 0.5))
		}
		p.SpawnOn(opts.SpawnCore, b.Build(), machine.SpawnOpts{Name: "cc"})
	}
	return p
}

// launchRun is what a scripted launch and its unrolled reference must
// agree on after running to completion.
type launchRun struct {
	threads  []threadRun
	makespan sim.Time
	events   uint64
}

type threadRun struct {
	exec, spin, work, finished sim.Time
}

// runLaunch launches one process on a fresh bulldozer8 with the
// scheduler's bugs on and runs it to completion.
func runLaunch(t *testing.T, launch func(m *machine.Machine) *machine.Proc) launchRun {
	t.Helper()
	m := machine.New(topology.Bulldozer8(), sched.DefaultConfig(), 11)
	p := launch(m)
	if _, ok := m.RunUntilDone(60*sim.Second, p); !ok {
		t.Fatalf("%s did not complete", p.Name())
	}
	r := launchRun{makespan: p.Makespan(), events: m.Eng.Processed()}
	for _, th := range p.Threads() {
		r.threads = append(r.threads, threadRun{th.T.SumExec(), th.SpinTime(), th.WorkDone(), th.FinishedAt()})
	}
	return r
}

// compareRuns fails unless the scripted run equals the reference.
func compareRuns(t *testing.T, got, want launchRun) {
	t.Helper()
	if got.makespan != want.makespan || got.events != want.events || len(got.threads) != len(want.threads) {
		t.Fatalf("scripted: makespan %v, %d events, %d threads; unrolled: %v, %d, %d",
			got.makespan, got.events, len(got.threads), want.makespan, want.events, len(want.threads))
	}
	for i := range want.threads {
		if got.threads[i] != want.threads[i] {
			t.Fatalf("thread %d: scripted %+v, unrolled %+v", i, got.threads[i], want.threads[i])
		}
	}
}

// TestScriptedLaunchesMatchUnrolled: the rolled, scripted programs of
// NASApp.Launch and LaunchMake run exactly as their unrolled references,
// for every NAS app (so the sleep path of the memory-bound apps, ua's
// lock and lu's two pipeline loops) pinned to Table 1's two nodes and
// unpinned, at 16 and 64 threads. Scale 0.2 gives every app at least two
// iterations, so every loop jumps.
func TestScriptedLaunchesMatchUnrolled(t *testing.T) {
	topo := topology.Bulldozer8()
	for _, a := range NASSuite() {
		for _, threads := range []int{16, 64} {
			for _, aff := range []sched.CPUSet{{}, NodeSet(topo, 1, 2)} {
				opts := NASLaunchOpts{Threads: threads, Affinity: aff, SpawnCore: 8, Seed: 5, Scale: 0.2}
				t.Run(fmt.Sprintf("%s/threads=%d/pinned=%v", a.Name, threads, aff.Count() > 0), func(t *testing.T) {
					got := runLaunch(t, func(m *machine.Machine) *machine.Proc { return a.Launch(m, opts) })
					want := runLaunch(t, func(m *machine.Machine) *machine.Proc { return unrolledNAS(a, m, opts) })
					compareRuns(t, got, want)
				})
			}
		}
	}
	for _, threads := range []int{16, 64} {
		opts := MakeOpts{Threads: threads, JobsPerThread: 8, JobGrain: 3 * sim.Millisecond, Seed: 3}
		t.Run(fmt.Sprintf("make/threads=%d", threads), func(t *testing.T) {
			got := runLaunch(t, func(m *machine.Machine) *machine.Proc { return LaunchMake(m, opts) })
			want := runLaunch(t, func(m *machine.Machine) *machine.Proc { return unrolledMake(m, opts) })
			compareRuns(t, got, want)
		})
	}
}
