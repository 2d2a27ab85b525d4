// Package workload builds the paper's application mix as simulator
// programs: the NAS-like parallel suite (Tables 1 and 3), the kernel
// make + R mix (Figure 2, §3.1), a TPC-H-like commercial database with
// pools of worker threads (Figure 3, Table 2), and the transient kernel
// noise that destabilizes it (§3.3).
//
// Applications are synthetic but exercise the same scheduler code paths as
// the originals: spin-barriers and spinlocks for the NAS codes ("NAS
// applications use spinlocks and spin-barriers", §3.2), autogrouped
// multi-thread processes for make, and blocking worker pools with
// producer-consumer wakeups for the database. Per-application parameters
// (compute grain, memory-stall fraction, synchronization kind, parallel-
// efficiency cap) are calibrated so the *shape* of the paper's results
// holds; EXPERIMENTS.md records paper-vs-measured numbers.
package workload

import (
	"math/rand"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// SyncKind classifies a NAS app's synchronization structure.
type SyncKind int

// Synchronization kinds.
const (
	// SyncNone: embarrassingly parallel (ep).
	SyncNone SyncKind = iota
	// SyncBarrier: compute/spin-barrier iterations (bt, cg, ft, is, mg, sp).
	SyncBarrier
	// SyncLockBarrier: a spinlock critical section inside each barrier
	// iteration (ua).
	SyncLockBarrier
	// SyncPipeline: fine-grain neighbour handoffs modelled as high-rate
	// barrier phases (lu): "it uses a pipeline algorithm to parallelize
	// work; threads wait for the data processed by other threads" (§3.2).
	SyncPipeline
)

// RefThreads is the thread count at which NASApp grains are specified.
// NPB problems are fixed-size: per-thread work per iteration scales as
// RefThreads/threads (running with 64 threads quarters the 16-thread
// grain).
const RefThreads = 16

// pipelineWindow is how many sweeps a pipeline stage may run ahead of its
// consumer (lu's forward/backward solves allow a small overlap).
const pipelineWindow = 2

// NASApp parametrizes one synthetic NAS program.
type NASApp struct {
	// Name is the NPB program name.
	Name string
	// Iterations is the number of compute/sync rounds (time steps; fixed
	// regardless of thread count).
	Iterations int
	// Grain is the per-thread compute per iteration at RefThreads
	// threads.
	Grain sim.Time
	// Stall is the per-iteration memory-stall time at RefThreads threads
	// (slept, not computed); overlapped when cores are oversubscribed.
	Stall sim.Time
	// Jitter is the fractional randomization of grain and stall.
	Jitter float64
	// Sync selects the synchronization structure.
	Sync SyncKind
	// CritSec is the spinlock critical-section length (SyncLockBarrier).
	CritSec sim.Time
	// BarrierBlockAfter, when non-zero, makes barriers adaptive
	// (spin-then-block, OpenMP's default); zero keeps pure spinning —
	// the behaviour behind lu's catastrophic sensitivity.
	BarrierBlockAfter sim.Time
	// Cap is the parallel-efficiency cap in effective threads; beyond it
	// aggregate compute throughput saturates (models the NAS codes that
	// "do not scale ideally to 64 cores", §3.4). Zero means unlimited.
	Cap float64
}

// NASSuite returns the nine NPB programs the paper evaluates, calibrated
// against Tables 1 and 3. The relative ordering is the paper's: lu is
// catastrophically sensitive (pipeline), ua and cg are lock/fine-barrier
// heavy, ep is pure compute, is barely scales.
func NASSuite() []NASApp {
	// OpenMP barriers (bt, cg, ft, is, mg, sp, ua) follow libgomp's
	// spin-then-block wait policy; lu's pipeline handoffs are custom
	// busy-wait flags (pure spin, BarrierBlockAfter 0), the behaviour the
	// paper blames for its catastrophic sensitivity, and ua's critical
	// sections use pure spinlocks. Stall models each code's memory-bound
	// fraction — slept, hence overlapped when cores are oversubscribed,
	// which is why the memory-bound programs (is, bt, ft) suffer less
	// than 2x from 2x oversubscription while the sync-bound ones (lu, ua,
	// cg) suffer more.
	const us = sim.Microsecond
	const ms = sim.Millisecond
	return []NASApp{
		{Name: "bt", Iterations: 30, Grain: 4 * ms, Stall: 1000 * us,
			Jitter: 0.1, Sync: SyncBarrier, BarrierBlockAfter: 200 * us, Cap: 40},
		{Name: "cg", Iterations: 120, Grain: 1300 * us, Stall: 0,
			Jitter: 0.1, Sync: SyncBarrier, BarrierBlockAfter: 1300 * us, Cap: 44},
		{Name: "ep", Iterations: 10, Grain: 25 * ms,
			Jitter: 0.05, Sync: SyncNone, Cap: 32},
		{Name: "ft", Iterations: 35, Grain: 3 * ms, Stall: 150 * us,
			Jitter: 0.1, Sync: SyncBarrier, BarrierBlockAfter: 200 * us, Cap: 52},
		{Name: "is", Iterations: 25, Grain: 2 * ms, Stall: 1300 * us,
			Jitter: 0.1, Sync: SyncBarrier, BarrierBlockAfter: 200 * us, Cap: 36},
		{Name: "lu", Iterations: 450, Grain: 80 * us,
			Jitter: 0.1, Sync: SyncPipeline, Cap: 56},
		{Name: "mg", Iterations: 70, Grain: 1300 * us, Stall: 120 * us,
			Jitter: 0.1, Sync: SyncBarrier, BarrierBlockAfter: 300 * us, Cap: 48},
		{Name: "sp", Iterations: 80, Grain: 1100 * us, Stall: 100 * us,
			Jitter: 0.1, Sync: SyncBarrier, BarrierBlockAfter: 700 * us, Cap: 48},
		{Name: "ua", Iterations: 90, Grain: 330 * us, Stall: 50 * us,
			Jitter: 0.15, Sync: SyncLockBarrier, CritSec: 55 * us,
			BarrierBlockAfter: 3 * ms, Cap: 52},
	}
}

// NASAppByName finds a suite entry; ok is false for unknown names.
func NASAppByName(name string) (NASApp, bool) {
	for _, a := range NASSuite() {
		if a.Name == name {
			return a, true
		}
	}
	return NASApp{}, false
}

// NASLaunchOpts configures a NAS run.
type NASLaunchOpts struct {
	// Threads is the thread count ("as many threads as there are cores").
	Threads int
	// Affinity is the taskset (zero value: whole machine).
	Affinity sched.CPUSet
	// SpawnCore is where every thread is forked — applications spawn all
	// threads from one parent during initialization (§3.2).
	SpawnCore topology.CoreID
	// Seed drives duration jitter.
	Seed int64
	// Scale multiplies iteration counts (0 = 1.0); benches use < 1 for
	// speed.
	Scale float64
}

// Launch starts the app on m and returns its process.
func (a NASApp) Launch(m *machine.Machine, opts NASLaunchOpts) *machine.Proc {
	if opts.Threads <= 0 {
		panic("workload: NAS launch needs threads")
	}
	iters := a.Iterations
	if opts.Scale > 0 {
		iters = int(float64(iters) * opts.Scale)
		if iters < 1 {
			iters = 1
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ nameSeed(a.Name)))
	p := m.NewProc(a.Name, machine.ProcOpts{Cap: a.Cap})

	// Fixed problem size: per-thread work shrinks as threads grow.
	grain := a.Grain * RefThreads / sim.Time(opts.Threads)
	stall := a.Stall * RefThreads / sim.Time(opts.Threads)
	crit := a.CritSec * RefThreads / sim.Time(opts.Threads)
	if grain < sim.Microsecond {
		grain = sim.Microsecond
	}

	var bar *machine.SpinBarrier
	var locks []*machine.SpinLock
	var flags []*machine.SpinFlag
	switch a.Sync {
	case SyncBarrier:
		bar = m.NewAdaptiveBarrier(opts.Threads, a.BarrierBlockAfter)
	case SyncLockBarrier:
		bar = m.NewAdaptiveBarrier(opts.Threads, a.BarrierBlockAfter)
		// Lock shards scale with the partitioning, one per ~16 threads:
		// ua's mesh locks are per-partition, not global.
		n := opts.Threads / 16
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			locks = append(locks, m.NewSpinLock())
		}
	case SyncPipeline:
		// lu's wavefront: thread i busy-waits on a flag posted by thread
		// i-1 each sweep, then hands off to i+1. Backward credit flags
		// bound the pipeline window to one sweep (the forward and
		// backward triangular solves couple neighbours tightly), so no
		// thread can batch ahead of its consumer.
		for i := 0; i < opts.Threads; i++ {
			flags = append(flags, m.NewSpinFlag())
		}
	}

	// Backward-credit flags for the pipeline window (see above).
	var back []*machine.SpinFlag
	if a.Sync == SyncPipeline {
		back = make([]*machine.SpinFlag, opts.Threads)
		for i := range back {
			back[i] = m.NewSpinFlag()
		}
	}

	// iteration appends one loop body of thread i. backWait adds the
	// pipeline's back-credit wait, which joins lu's body once the first
	// pipelineWindow sweeps are done.
	iteration := func(b *machine.Builder, i int, backWait bool) {
		if flags != nil && i > 0 {
			b.WaitFlag(flags[i]) // input from predecessor
		}
		b.ScriptedCompute()
		if stall > 0 {
			b.ScriptedSleep()
		}
		if len(locks) > 0 {
			lock := locks[i%len(locks)]
			b.Lock(lock).Compute(crit).Unlock(lock)
		}
		if flags != nil {
			if i > 0 {
				b.PostFlag(back[i]) // free predecessor's slot
			}
			if i < opts.Threads-1 {
				if backWait {
					b.WaitFlag(back[i+1]) // successor must drain first
				}
				b.PostFlag(flags[i+1]) // hand off to successor
			}
		}
		if bar != nil {
			b.Barrier(bar)
		}
	}

	// Each thread runs its loop rolled. The jittered compute and stall
	// durations are drawn here, thread by thread and within an iteration
	// compute first, into the thread's script, which the body's scripted
	// instructions read in turn. All scripts share one array, and threads
	// share one program unless their body names their own sync objects
	// (lu's flags, ua's lock shards).
	perIter := 1
	if stall > 0 {
		perIter = 2
	}
	// Only lu's body changes, when the back-credit wait joins it: the
	// first early iterations run without it, the rest with it.
	early := iters
	if flags != nil {
		early = min(iters, pipelineWindow)
	}
	durs := make([]sim.Time, 0, opts.Threads*iters*perIter)
	b := machine.NewProgram()
	var prog machine.Program
	for i := 0; i < opts.Threads; i++ {
		first := len(durs)
		for it := 0; it < iters; it++ {
			durs = append(durs, jitter(rng, grain, a.Jitter))
			if stall > 0 {
				durs = append(durs, jitter(rng, stall, a.Jitter))
			}
		}
		if prog == nil || flags != nil || len(locks) > 1 {
			b.Reset()
			b.Repeat(early, func(b *machine.Builder) { iteration(b, i, false) })
			b.Repeat(iters-early, func(b *machine.Builder) { iteration(b, i, true) })
			prog = b.Build()
		}
		p.SpawnOn(opts.SpawnCore, prog, machine.SpawnOpts{
			Name:     a.Name,
			Affinity: opts.Affinity,
			Script:   durs[first:len(durs):len(durs)],
		})
	}
	return p
}

// nameSeed hashes an application name into a jitter-seed perturbation
// (FNV-1a). The previous scheme XORed in len(Name), which collided for
// every same-length pair — bt/cg/ep/... all drew identical jitter
// sequences under one campaign seed, correlating makespans across apps
// that are supposed to be independent.
func nameSeed(name string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int64(h)
}

// jitter returns d randomized by +-frac.
func jitter(rng *rand.Rand, d sim.Time, frac float64) sim.Time {
	if frac <= 0 || d == 0 {
		return d
	}
	f := 1 + frac*(2*rng.Float64()-1)
	out := sim.Time(float64(d) * f)
	if out < sim.Microsecond {
		out = sim.Microsecond
	}
	return out
}

// NodeSet returns the CPUSet covering the given NUMA nodes — the
// "numactl --cpunodebind" taskset of Table 1.
func NodeSet(topo *topology.Topology, nodes ...topology.NodeID) sched.CPUSet {
	var s sched.CPUSet
	for _, n := range nodes {
		for _, c := range topo.CoresOfNode(n) {
			s.Set(c)
		}
	}
	return s
}
