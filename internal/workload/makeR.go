package workload

import (
	"math/rand"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file builds the §3.1 / Figure 2 workload: "the machine was
// executing a compilation of the kernel (make with 64 threads), and
// running two R processes (each with one thread). The make and the two R
// processes were launched from 3 different ssh connections (i.e., 3
// different ttys)" — hence three distinct autogroups.

// MakeOpts configures the kernel-make-like job.
type MakeOpts struct {
	// Threads is make's -j level (64 in the paper).
	Threads int
	// JobsPerThread is how many compile jobs each worker runs.
	JobsPerThread int
	// JobGrain is the mean compile burst; jobs also do short I/O sleeps.
	JobGrain sim.Time
	// SpawnCore is where the make process forks its workers.
	SpawnCore topology.CoreID
	// Seed drives jitter.
	Seed int64
}

// DefaultMakeOpts returns the Figure 2 parameters at simulation scale.
func DefaultMakeOpts() MakeOpts {
	return MakeOpts{
		Threads:       64,
		JobsPerThread: 40,
		JobGrain:      3 * sim.Millisecond,
		Seed:          1,
	}
}

// LaunchMake starts a make-like process: Threads workers in one autogroup
// (one tty), each running a stream of compile jobs — CPU bursts separated
// by short I/O waits. Every worker's load is divided by the thread count,
// which is what hides them from the buggy average-load comparison.
func LaunchMake(m *machine.Machine, opts MakeOpts) *machine.Proc {
	if opts.Threads <= 0 {
		opts = DefaultMakeOpts()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	p := m.NewProc("make", machine.ProcOpts{})
	// Every worker runs one rolled job loop. Its jittered compile and
	// header-I/O durations are drawn here, worker by worker, into its
	// script; all scripts share one array.
	prog := machine.NewProgram().Repeat(opts.JobsPerThread, func(b *machine.Builder) {
		b.ScriptedCompute().ScriptedSleep()
	}).Build()
	durs := make([]sim.Time, 0, 2*opts.Threads*max(opts.JobsPerThread, 0))
	for i := 0; i < opts.Threads; i++ {
		first := len(durs)
		for j := 0; j < opts.JobsPerThread; j++ {
			durs = append(durs, jitter(rng, opts.JobGrain, 0.5), jitter(rng, 300*sim.Microsecond, 0.5))
		}
		p.SpawnOn(opts.SpawnCore, prog, machine.SpawnOpts{Name: "cc", Script: durs[first:len(durs):len(durs)]})
	}
	return p
}

// LaunchR starts a single-threaded R-like process in its own autogroup:
// a pure CPU hog whose load is the full NICE0 weight, the high-load
// thread that "skews up the average load for that node and conceals the
// fact that some cores are actually idle" (§3.1).
func LaunchR(m *machine.Machine, core topology.CoreID, work sim.Time) *machine.Proc {
	p := m.NewProc("R", machine.ProcOpts{})
	p.SpawnOn(core, machine.NewProgram().Compute(work).Build(), machine.SpawnOpts{Name: "R"})
	return p
}
