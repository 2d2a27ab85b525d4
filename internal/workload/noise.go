package workload

import (
	"math/rand"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Noise models the transient kernel threads of §3.3: "the kernel launches
// tasks that last less than a millisecond to perform background
// operations, such as logging or irq handling". Each burst is a fresh
// single-thread process (full NICE0 load: new tasks look heavy) pinned
// nowhere, appearing on a random core. These bursts are what bait the
// load balancer into migrating a database thread to another node, arming
// the Overload-on-Wakeup bug.
type Noise struct {
	m       *machine.Machine
	rng     *rand.Rand
	tm      *sim.Timer // burst timer, re-armed in place
	mean    sim.Time   // mean inter-arrival
	minDur  sim.Time
	maxDur  sim.Time
	stopped bool
	online  []topology.CoreID // burst's scratch: the online cores, ascending

	// Spawned counts bursts emitted.
	Spawned int
}

// NoiseOpts configures the burst generator.
type NoiseOpts struct {
	// MeanInterval is the average time between bursts (exponential).
	MeanInterval sim.Time
	// MinDur/MaxDur bound each burst's compute time (paper: "less than a
	// millisecond").
	MinDur, MaxDur sim.Time
	// Seed drives arrival times and placement.
	Seed int64
}

// DefaultNoiseOpts returns §3.3-scale background activity.
func DefaultNoiseOpts() NoiseOpts {
	return NoiseOpts{
		MeanInterval: 3 * sim.Millisecond,
		MinDur:       200 * sim.Microsecond,
		MaxDur:       900 * sim.Microsecond,
		Seed:         99,
	}
}

// StartNoise begins emitting bursts until Stop is called.
func StartNoise(m *machine.Machine, opts NoiseOpts) *Noise {
	if opts.MeanInterval == 0 {
		opts = DefaultNoiseOpts()
	}
	n := &Noise{
		m:      m,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		mean:   opts.MeanInterval,
		minDur: opts.MinDur,
		maxDur: opts.MaxDur,
	}
	n.tm = m.Eng.NewTimer(func() {
		if n.stopped {
			return
		}
		n.burst()
		n.scheduleNext()
	})
	n.scheduleNext()
	return n
}

// Stop halts burst generation.
func (n *Noise) Stop() { n.stopped = true }

func (n *Noise) scheduleNext() {
	gap := sim.Time(n.rng.ExpFloat64() * float64(n.mean))
	if gap < 10*sim.Microsecond {
		gap = 10 * sim.Microsecond
	}
	n.tm.ResetAfter(gap)
}

func (n *Noise) burst() {
	n.online = n.m.Sched.OnlineSet().AppendCores(n.online[:0])
	online := n.online
	if len(online) == 0 {
		return
	}
	core := online[n.rng.Intn(len(online))]
	dur := n.minDur + sim.Time(n.rng.Int63n(int64(n.maxDur-n.minDur)+1))
	p := n.m.NewProc("kworker", machine.ProcOpts{})
	p.SpawnOn(core, machine.NewProgram().Compute(dur).Build(), machine.SpawnOpts{Name: "kworker"})
	n.Spawned++
}
