package machine_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestMidRunForkByteEquivalent is the machine-level fork property: fork
// a world in the middle of a run and drive both worlds to completion.
// Makespans, processed event counts, scheduler counters and primitive
// statistics must agree exactly: the fork replays the original's
// future byte for byte. The NAS runs fork with threads computing,
// spinning on locks, parked on barriers, compute timers and deferred
// steps in flight; the TPC-H run forks with its work queue partly
// popped, so the fork must carry over only the pending tasks.
func TestMidRunForkByteEquivalent(t *testing.T) {
	nas := func(app string) func(*testing.T, *machine.Machine) *machine.Proc {
		return func(t *testing.T, m *machine.Machine) *machine.Proc {
			a, ok := workload.NASAppByName(app)
			if !ok {
				t.Fatalf("unknown app %s", app)
			}
			p := a.Launch(m, workload.NASLaunchOpts{Threads: 16, Seed: 5, Scale: 0.1})
			// Run deep enough that every primitive has been exercised
			// but the workload is still far from done.
			m.Run(2 * sim.Millisecond)
			return p
		}
	}
	cases := []struct {
		name string
		// start launches the workload, advances m to the fork point and
		// returns the process both worlds run to completion.
		start func(*testing.T, *machine.Machine) *machine.Proc
	}{
		{"ua", nas("ua")},
		{"lu", nas("lu")},
		{"cg", nas("cg")},
		{"tpch", func(t *testing.T, m *machine.Machine) *machine.Proc {
			d := workload.NewTPCH(m, workload.TPCHOpts{Containers: []int{8, 4, 4}, Seed: 5, Scale: 0.1})
			// Q18 with a one-microsecond horizon: the coordinator is
			// spawned and left running, then the world is stepped
			// until workers have popped some of a stage's tasks and
			// the rest still wait in the queue.
			if _, ok := d.RunQuery(workload.Q18Index, 0, sim.Microsecond); ok {
				t.Fatal("query finished within its horizon")
			}
			q := d.Queue()
			for q.Head() == 0 || q.Pending() == 0 {
				if !m.Eng.Step() {
					t.Fatal("queue never partly popped")
				}
			}
			procs := m.Procs()
			return procs[len(procs)-1]
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := machine.New(topology.SMP(8), sched.DefaultConfig(), 11)
			p := c.start(t, m)

			f := m.Fork()
			var fp *machine.Proc
			for i, op := range m.Procs() {
				if op == p {
					fp = f.Procs()[i]
				}
			}
			if fp == nil {
				t.Fatal("forked proc not found")
			}
			for i, fq := range f.WorkQueues() {
				if oq := m.WorkQueues()[i]; fq.Head() != 0 || fq.Pending() != oq.Pending() {
					t.Fatalf("queue %d forked with head %d and %d pending, want 0 and %d",
						i, fq.Head(), fq.Pending(), oq.Pending())
				}
			}

			horizon := m.Eng.Now() + 100*sim.Second
			endA, okA := m.RunUntilDone(horizon, p)
			endB, okB := f.RunUntilDone(horizon, fp)
			if !okA || !okB {
				t.Fatalf("runs incomplete: original %v fork %v", okA, okB)
			}
			if endA != endB {
				t.Errorf("makespans differ: %v vs %v", endA, endB)
			}
			if m.Eng.Processed() != f.Eng.Processed() {
				t.Errorf("processed events differ: %d vs %d", m.Eng.Processed(), f.Eng.Processed())
			}
			if ca, cb := m.Sched.Counters(), f.Sched.Counters(); ca != cb {
				t.Errorf("scheduler counters differ:\n original %+v\n     fork %+v", ca, cb)
			}
			la, lb := m.Locks(), f.Locks()
			if len(la) != len(lb) {
				t.Fatalf("lock counts differ: %d vs %d", len(la), len(lb))
			}
			for i := range la {
				if la[i].Acquisitions != lb[i].Acquisitions || la[i].Contended != lb[i].Contended {
					t.Errorf("lock %d stats differ: %d/%d vs %d/%d", i,
						la[i].Acquisitions, la[i].Contended, lb[i].Acquisitions, lb[i].Contended)
				}
			}
			for i, qa := range m.WorkQueues() {
				qb := f.WorkQueues()[i]
				if qa.Pushed != qb.Pushed || qa.Completed != qb.Completed || qa.Pending() != qb.Pending() {
					t.Errorf("queue %d differs: pushed/completed/pending %d/%d/%d vs %d/%d/%d", i,
						qa.Pushed, qa.Completed, qa.Pending(), qb.Pushed, qb.Completed, qb.Pending())
				}
			}
		})
	}
}
