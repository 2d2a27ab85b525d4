package workload

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file models the §3.3 / Table 2 workload: "a widely used commercial
// database configured with 64 worker threads (1 thread per core) and
// executing the TPC-H workload". The database "relies on pools of worker
// threads: a handful of container processes each provide several dozens of
// worker threads. Each container process is launched in a different
// autogroup ... Since different container processes have a different
// number of worker threads, different worker threads have different
// loads" — the ingredient that triggers the Group Imbalance bug alongside
// Overload-on-Wakeup.
//
// Queries are sequences of parallel stages; each stage fans tasks through
// the worker pool (workers wake workers as tasks spawn children), and the
// stage completes only when every task has finished — so a single worker
// stuck behind a busy core straggles the entire stage, which is exactly
// why "any two threads that are stuck on the same core end up slowing
// down all the remaining threads".

// TPCHOpts configures the database and its workload.
type TPCHOpts struct {
	// Containers lists worker counts per container process. The paper's
	// pool is 64 workers across containers of different sizes.
	Containers []int
	// Autogroups places each container in its own autogroup; Figure 3
	// disables them ("we disabled autogroups in this experiment").
	Autogroups bool
	// Scale multiplies stage task durations (0 = 1.0).
	Scale float64
	// Seed drives query synthesis.
	Seed int64
	// SpawnCore is where containers fork their workers.
	SpawnCore topology.CoreID
}

// DefaultTPCHOpts returns the paper's configuration at simulation scale.
func DefaultTPCHOpts() TPCHOpts {
	return TPCHOpts{
		Containers: []int{32, 16, 16},
		Autogroups: true,
		Seed:       1,
	}
}

// queryShape describes one TPC-H query as stage parameters.
type queryShape struct {
	stages   int
	seeds    int      // seed tasks per stage
	taskDur  sim.Time // per-task compute
	fanout   int      // children per completed task
	depth    int      // fan-out depth
	tailComp sim.Time // per-stage single-threaded aggregation
}

// TPCH is a running database instance.
type TPCH struct {
	m       *machine.Machine
	opts    TPCHOpts
	queue   *machine.WorkQueue
	workers []*machine.MThread
	shapes  []queryShape
}

// NumQueries is the TPC-H query count.
const NumQueries = 22

// Q18Index is the 0-based index of TPC-H Q18, "one of the queries that is
// most sensitive to the bug".
const Q18Index = 17

// NewTPCH builds the database: containers spawn their workers (all forked
// from the same parent core, then spread by the balancer), and workers
// block on the shared task queue.
func NewTPCH(m *machine.Machine, opts TPCHOpts) *TPCH {
	if len(opts.Containers) == 0 {
		opts = DefaultTPCHOpts()
	}
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	d := &TPCH{m: m, opts: opts, queue: m.NewWorkQueue()}
	d.synthesizeQueries()
	for ci, n := range opts.Containers {
		p := m.NewProc(fmt.Sprintf("db-container-%d", ci), machine.ProcOpts{
			SharedGroup: !opts.Autogroups,
		})
		for i := 0; i < n; i++ {
			prog := machine.NewProgram().
				Repeat(1_000_000, func(b *machine.Builder) { b.Pop(d.queue) }).
				Build()
			w := p.SpawnOn(opts.SpawnCore, prog, machine.SpawnOpts{
				Name: fmt.Sprintf("dbw-%d", ci),
			})
			d.workers = append(d.workers, w)
		}
	}
	return d
}

// Workers returns the pool's worker threads.
func (d *TPCH) Workers() []*machine.MThread { return d.workers }

// Queue returns the shared task queue.
func (d *TPCH) Queue() *machine.WorkQueue { return d.queue }

// synthesizeQueries derives the 22 query shapes from the seed. Q18 gets
// many short straggler-sensitive stages; the rest vary between longer
// scan-like stages and shorter join stages.
func (d *TPCH) synthesizeQueries() {
	rng := seededRand(d.opts.Seed)
	defer randPool.Put(rng)
	scale := d.opts.Scale
	for q := 0; q < NumQueries; q++ {
		var s queryShape
		if q == Q18Index {
			// Large multi-join query: many short synchronized stages. The
			// stage count and per-stage parallelism are deliberately high —
			// every Drain is a straggler barrier, so a single delayed
			// wakeup stalls the whole stage. That is what makes Q18 "one
			// of the queries that is most sensitive to the bug": its
			// latency tracks wakeup placement much more tightly than the
			// scan-shaped queries below.
			s = queryShape{
				stages:   20,
				seeds:    16,
				taskDur:  sim.Time(scale * float64(400*sim.Microsecond)),
				fanout:   2,
				depth:    2,
				tailComp: sim.Time(scale * float64(300*sim.Microsecond)),
			}
		} else {
			stages := 2 + rng.Intn(3)
			s = queryShape{
				stages:   stages,
				seeds:    24 + rng.Intn(40),
				taskDur:  sim.Time(scale * float64(600+rng.Intn(900)) * float64(sim.Microsecond)),
				fanout:   1 + rng.Intn(2),
				depth:    rng.Intn(2),
				tailComp: sim.Time(scale * float64(200*sim.Microsecond)),
			}
		}
		d.shapes = append(d.shapes, s)
	}
}

// RunQuery executes query q (0-based) to completion and returns its
// latency. The coordinator is spawned on the given core (rotate across
// calls for realism). It returns 0 and false if the horizon was hit.
func (d *TPCH) RunQuery(q int, coordCore topology.CoreID, horizon sim.Time) (sim.Time, bool) {
	s := d.shapes[q%len(d.shapes)]
	b := machine.NewProgram()
	for st := 0; st < s.stages; st++ {
		b.PushTree(d.queue, s.seeds, s.taskDur, s.fanout, s.depth)
		b.Drain(d.queue)
		if s.tailComp > 0 {
			b.Compute(s.tailComp)
		}
	}
	coord := d.m.NewProc(fmt.Sprintf("query-%d", q+1), machine.ProcOpts{
		SharedGroup: !d.opts.Autogroups,
	})
	start := d.m.Eng.Now()
	coord.SpawnOn(coordCore, b.Build(), machine.SpawnOpts{Name: "coord"})
	end, ok := d.m.RunUntilDone(start+horizon, coord)
	if !ok {
		return 0, false
	}
	return end - start, true
}

// RunAll executes the full 22-query benchmark sequentially (as TPC-H power
// runs do) and returns per-query latencies.
func (d *TPCH) RunAll(horizon sim.Time) ([]sim.Time, bool) {
	ncores := d.m.Topo.NumCores()
	out := make([]sim.Time, 0, NumQueries)
	for q := 0; q < NumQueries; q++ {
		core := topology.CoreID((q * 7) % ncores)
		lat, ok := d.RunQuery(q, core, horizon)
		if !ok {
			return out, false
		}
		out = append(out, lat)
	}
	return out, true
}
