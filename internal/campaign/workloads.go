package campaign

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/globalq"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// RunContext is what a workload receives: a freshly-built machine, its
// topology, the scenario's derived engine seed, and the scale/horizon of
// the matrix. Workloads must derive all randomness from Seed (or the
// machine's engine) — wall-clock or global randomness would break the
// byte-identical-artifact guarantee.
type RunContext struct {
	M       *machine.Machine
	Topo    *topology.Topology
	Seed    int64
	Scale   float64
	Horizon sim.Time
}

// Outcome is what a workload reports back to the runner.
type Outcome struct {
	// Makespan is the workload's completion time in virtual time (the
	// horizon when it did not complete).
	Makespan sim.Time
	// Completed is false when the horizon was hit first.
	Completed bool
	// Extra carries workload-specific metrics into the artifact.
	Extra map[string]float64
}

// Workload is a named scenario workload.
type Workload struct {
	Name string
	Run  func(rc *RunContext) Outcome
}

// The workload registry: static names in a once-built map (registration
// order preserved), plus prefix families ("nas:<app>", "serve:<qps>")
// whose members are synthesized on lookup.
var (
	loadMu     sync.RWMutex
	loadByName = map[string]Workload{}
	loadOrder  []string
	families   []workloadFamily
)

type workloadFamily struct {
	pattern, prefix string
	resolve         func(rest string) (Workload, bool)
}

// RegisterWorkload adds a named workload to the registry. It errors on
// an empty or duplicate name.
func RegisterWorkload(w Workload) error {
	if w.Name == "" || w.Run == nil {
		return fmt.Errorf("campaign: workload must have a name and a Run")
	}
	loadMu.Lock()
	defer loadMu.Unlock()
	if _, dup := loadByName[w.Name]; dup {
		return fmt.Errorf("campaign: duplicate workload name %q", w.Name)
	}
	loadByName[w.Name] = w
	loadOrder = append(loadOrder, w.Name)
	return nil
}

// MustRegisterWorkload is RegisterWorkload that panics on error.
func MustRegisterWorkload(w Workload) {
	if err := RegisterWorkload(w); err != nil {
		panic(err)
	}
}

// registerFamily adds a prefix-resolved workload family (first match
// wins; static names take precedence). The pattern is how WorkloadNames
// lists the family; its prefix is everything before the first "<".
func registerFamily(pattern string, resolve func(rest string) (Workload, bool)) {
	prefix, _, _ := strings.Cut(pattern, "<")
	loadMu.Lock()
	defer loadMu.Unlock()
	families = append(families, workloadFamily{pattern: pattern, prefix: prefix, resolve: resolve})
}

func init() {
	MustRegisterWorkload(makeTwoR())
	MustRegisterWorkload(tpchWorkload())
	MustRegisterWorkload(nasWorkload("lu"))
	MustRegisterWorkload(nasWorkload("cg"))
	MustRegisterWorkload(nasWorkload("ep"))
	MustRegisterWorkload(nasPinnedWorkload("lu"))
	MustRegisterWorkload(nasHotplugWorkload("lu"))
	MustRegisterWorkload(nasHotplugStormWorkload("lu", 4))
	MustRegisterWorkload(serveWorkload(3000))
	MustRegisterWorkload(globalqWorkload())

	nasFamily := func(build func(app string) Workload) func(string) (Workload, bool) {
		return func(app string) (Workload, bool) {
			if _, found := workload.NASAppByName(app); found {
				return build(app), true
			}
			return Workload{}, false
		}
	}
	registerFamily("nas:<app>", nasFamily(nasWorkload))
	registerFamily("nas-pin:<app>", nasFamily(nasPinnedWorkload))
	registerFamily("nas-hotplug:<app>", nasFamily(nasHotplugWorkload))
	registerFamily("nas-hotplug-storm:<app>:<cycles>", func(rest string) (Workload, bool) {
		app, cyc, ok := strings.Cut(rest, ":")
		if !ok {
			return Workload{}, false
		}
		if _, found := workload.NASAppByName(app); !found {
			return Workload{}, false
		}
		cycles, err := strconv.Atoi(cyc)
		if err != nil || cycles < 1 {
			return Workload{}, false
		}
		return nasHotplugStormWorkload(app, cycles), true
	})
	registerFamily("serve:<qps>", func(rest string) (Workload, bool) {
		qps, err := strconv.Atoi(rest)
		if err != nil || qps < 1 {
			return Workload{}, false
		}
		return serveWorkload(qps), true
	})
}

// BuiltinWorkloads lists the registered workloads in registration order
// (the stock set first). The family members WorkloadNames lists, such as
// "nas:<app>", are additionally reachable through WorkloadByName.
func BuiltinWorkloads() []Workload {
	loadMu.RLock()
	defer loadMu.RUnlock()
	out := make([]Workload, 0, len(loadOrder))
	for _, name := range loadOrder {
		out = append(out, loadByName[name])
	}
	return out
}

// WorkloadByName resolves a registered workload, including the members
// of the prefix families WorkloadNames lists.
func WorkloadByName(name string) (Workload, bool) {
	loadMu.RLock()
	if w, ok := loadByName[name]; ok {
		loadMu.RUnlock()
		return w, true
	}
	fams := families
	loadMu.RUnlock()
	for _, f := range fams {
		if rest, ok := strings.CutPrefix(name, f.prefix); ok {
			if w, found := f.resolve(rest); found {
				return w, true
			}
		}
	}
	return Workload{}, false
}

// scaleDur scales a duration, clamping at a floor so tiny scales keep
// the workload meaningful.
func scaleDur(d sim.Time, scale float64, floor sim.Time) sim.Time {
	s := sim.Time(float64(d) * scale)
	if s < floor {
		return floor
	}
	return s
}

// makeTwoR is the §3.1 / Figure 2 mix: a make -j(numcores) build in one
// autogroup plus two single-threaded R hogs in their own autogroups on
// distinct nodes — the workload that exposes Group Imbalance. Makespan
// is make's completion time.
func makeTwoR() Workload {
	return Workload{Name: "make2r", Run: func(rc *RunContext) Outcome {
		topo := rc.Topo
		rWork := scaleDur(30*sim.Second, rc.Scale, sim.Second)
		workload.LaunchR(rc.M, topo.CoresOfNode(0)[0], rWork)
		if topo.NumNodes() > 1 {
			mid := topology.NodeID(topo.NumNodes() / 2)
			workload.LaunchR(rc.M, topo.CoresOfNode(mid)[0], rWork)
		}
		mk := workload.DefaultMakeOpts()
		mk.Seed = rc.Seed
		mk.Threads = topo.NumCores()
		mk.JobsPerThread = int(float64(mk.JobsPerThread) * rc.Scale)
		if mk.JobsPerThread < 2 {
			mk.JobsPerThread = 2
		}
		mk.SpawnCore = topo.CoresOfNode(topology.NodeID(topo.NumNodes() - 1))[0]
		p := workload.LaunchMake(rc.M, mk)
		end, ok := rc.M.RunUntilDone(rc.Horizon, p)
		return Outcome{Makespan: end, Completed: ok}
	}}
}

// nasWorkload runs one NPB program with as many threads as cores, all
// forked from core 0 — the §3.2/§3.4 pattern that concentrates load on
// the spawn node until the balancer (if healthy) spreads it.
func nasWorkload(name string) Workload {
	return Workload{Name: "nas:" + name, Run: func(rc *RunContext) Outcome {
		app, ok := workload.NASAppByName(name)
		if !ok {
			panic("campaign: unknown NAS app " + name)
		}
		p := app.Launch(rc.M, workload.NASLaunchOpts{
			Threads:   rc.Topo.NumCores(),
			SpawnCore: 0,
			Seed:      rc.Seed,
			Scale:     rc.Scale,
		})
		end, done := rc.M.RunUntilDone(rc.Horizon, p)
		return Outcome{Makespan: end, Completed: done}
	}}
}

// nasPinnedWorkload is the Table 1 configuration: the program pinned
// (numactl-style) to the two most distant NUMA nodes, with as many
// threads as those nodes have cores, all forked on the first node. On
// machines with 2-hop-apart nodes the Scheduling Group Construction bug
// keeps every thread on the spawn node — the scenario where the sanity
// checker sees long-term idle-while-overloaded violations. On
// single-node machines it degrades to an unpinned run.
func nasPinnedWorkload(name string) Workload {
	return Workload{Name: "nas-pin:" + name, Run: func(rc *RunContext) Outcome {
		app, ok := workload.NASAppByName(name)
		if !ok {
			panic("campaign: unknown NAS app " + name)
		}
		opts := workload.NASLaunchOpts{
			Threads:   rc.Topo.NumCores(),
			SpawnCore: 0,
			Seed:      rc.Seed,
			Scale:     rc.Scale,
		}
		if a, b, ok := brokenNodePair(rc.Topo); ok {
			opts.Affinity = workload.NodeSet(rc.Topo, a, b)
			opts.Threads = len(rc.Topo.CoresOfNode(a)) + len(rc.Topo.CoresOfNode(b))
			opts.SpawnCore = rc.Topo.CoresOfNode(a)[0]
		}
		p := app.Launch(rc.M, opts)
		end, done := rc.M.RunUntilDone(rc.Horizon, p)
		return Outcome{Makespan: end, Completed: done}
	}}
}

// brokenNodePair returns a pair of nodes whose load balancing the
// Scheduling Group Construction bug breaks: two nodes at hop distance
// >= 2 that appear together in every buggy machine-level scheduling
// group that contains either of them — so from any core on either node
// the other is always "local" and never stolen from. It replicates the
// buggy greedy construction (groups are (maxHops-1)-hop neighborhoods
// of nodes taken in ascending order from node 0, the Core 0
// perspective; see sched.buildNUMAGroups). On the Bulldozer machine
// this yields the paper's pair, nodes 1 and 2. Falls back to the
// farthest pair when no broken pair exists, and reports ok=false on
// single-node machines.
func brokenNodePair(t *topology.Topology) (a, b topology.NodeID, ok bool) {
	n := t.NumNodes()
	if n < 2 {
		return 0, 0, false
	}
	h := t.MaxHops()
	// Buggy machine-level groups, from node 0's perspective.
	var groups [][]topology.NodeID
	covered := map[topology.NodeID]bool{}
	for i := 0; i < n; i++ {
		node := topology.NodeID(i)
		if covered[node] {
			continue
		}
		g := t.NodesWithin(node, h-1)
		for _, gn := range g {
			covered[gn] = true
		}
		groups = append(groups, g)
	}
	inGroup := func(g []topology.NodeID, x topology.NodeID) bool {
		for _, gn := range g {
			if gn == x {
				return true
			}
		}
		return false
	}
	var fallbackA, fallbackB topology.NodeID
	bestHops := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x, y := topology.NodeID(i), topology.NodeID(j)
			d := t.Hops(x, y)
			if d > bestHops {
				bestHops = d
				fallbackA, fallbackB = x, y
			}
			if d < 2 {
				continue
			}
			broken := true
			for _, g := range groups {
				if inGroup(g, x) != inGroup(g, y) {
					broken = false
					break
				}
			}
			if broken {
				return x, y, true
			}
		}
	}
	return fallbackA, fallbackB, bestHops > 0
}

// HotplugSettle is how long nas-hotplug runs the machine between its
// hotplug cycle and the program's launch. Its makespan includes it;
// Table 3 subtracts it to time the program from launch.
const HotplugSettle = 10 * sim.Millisecond

// nasHotplugWorkload is the Table 3 configuration (§3.4): disable and
// re-enable the machine's last core, let it settle for HotplugSettle,
// then launch the NPB program with as many threads as cores, all forked
// from core 0. With the Missing Scheduling Domains bug the regeneration
// after hotplug drops every node-spanning level, so the threads never
// leave the spawn node; the fix restores them. On single-node machines
// the hotplug cycle is harmless and the run degrades to a plain NAS run.
func nasHotplugWorkload(name string) Workload {
	return Workload{Name: "nas-hotplug:" + name, Run: func(rc *RunContext) Outcome {
		app, ok := workload.NASAppByName(name)
		if !ok {
			panic("campaign: unknown NAS app " + name)
		}
		last := topology.CoreID(rc.Topo.NumCores() - 1)
		if err := rc.M.DisableCore(last); err != nil {
			panic(err)
		}
		if err := rc.M.EnableCore(last); err != nil {
			panic(err)
		}
		rc.M.Run(HotplugSettle)
		p := app.Launch(rc.M, workload.NASLaunchOpts{
			Threads:   rc.Topo.NumCores(),
			SpawnCore: 0,
			Seed:      rc.Seed,
			Scale:     rc.Scale,
		})
		end, done := rc.M.RunUntilDone(rc.Horizon, p)
		return Outcome{Makespan: end, Completed: done}
	}}
}

// nasHotplugStormWorkload generalizes the Table 3 configuration to a
// hotplug *storm*: the NPB program launches normally, then the
// machine's last core is disabled and re-enabled repeatedly while the
// program runs. Every cycle forces a domain regeneration and a burst of
// hotplug migrations; with the Missing Scheduling Domains bug the first
// regeneration drops every node-spanning level and each further cycle
// re-breaks whatever state the workload had recovered. Makespan is the
// program's completion time.
func nasHotplugStormWorkload(name string, cycles int) Workload {
	wname := fmt.Sprintf("nas-hotplug-storm:%s:%d", name, cycles)
	return Workload{Name: wname, Run: func(rc *RunContext) Outcome {
		app, ok := workload.NASAppByName(name)
		if !ok {
			panic("campaign: unknown NAS app " + name)
		}
		p := app.Launch(rc.M, workload.NASLaunchOpts{
			Threads:   rc.Topo.NumCores(),
			SpawnCore: 0,
			Seed:      rc.Seed,
			Scale:     rc.Scale,
		})
		// The storm rides on engine events so it interleaves with the
		// running program: disable, let the drain settle, re-enable,
		// settle, repeat.
		last := topology.CoreID(rc.Topo.NumCores() - 1)
		const phase = 5 * sim.Millisecond
		var cycle func(i int)
		cycle = func(i int) {
			if i >= cycles {
				return
			}
			if err := rc.M.DisableCore(last); err != nil {
				panic(err)
			}
			rc.M.Eng.After(phase, func() {
				if err := rc.M.EnableCore(last); err != nil {
					panic(err)
				}
				rc.M.Eng.After(phase, func() { cycle(i + 1) })
			})
		}
		rc.M.Eng.After(phase, func() { cycle(0) })
		end, done := rc.M.RunUntilDone(rc.Horizon, p)
		return Outcome{Makespan: end, Completed: done}
	}}
}

// serveWorkload is the latency-oriented request-serving scenario: a
// worker pool (one thread per core) drains an open-loop Poisson stream
// of qps requests per virtual second, with the §3.3 transient kernel
// noise in the background. The figure of merit is the per-request
// sojourn distribution — Extra carries its percentiles (milliseconds),
// so artifacts expose tail latency even for consumers that ignore the
// wake-latency digests. Makespan is the completion time of the last
// request.
func serveWorkload(qps int) Workload {
	wname := fmt.Sprintf("serve:%d", qps)
	return Workload{Name: wname, Run: func(rc *RunContext) Outcome {
		// Scale sizes the request count (2 virtual seconds of traffic at
		// scale 1); service times stay fixed so percentiles compare
		// across scales.
		requests := int(float64(qps) * 2 * rc.Scale)
		if requests < 50 {
			requests = 50
		}
		nopts := workload.DefaultNoiseOpts()
		nopts.Seed = rc.Seed + 1
		noise := workload.StartNoise(rc.M, nopts)
		defer noise.Stop()
		srv := workload.StartServe(rc.M, workload.ServeOpts{
			QPS:      float64(qps),
			Requests: requests,
			Seed:     rc.Seed,
		})
		end, done := srv.Run(rc.Horizon)
		lats := srv.Latencies()
		if len(lats) == 0 {
			return Outcome{Makespan: rc.Horizon, Completed: false}
		}
		ms := make([]float64, len(lats))
		for i, l := range lats {
			ms[i] = float64(l) / float64(sim.Millisecond)
		}
		if !done {
			end = rc.Horizon
		}
		return Outcome{
			Makespan:  end,
			Completed: done,
			Extra: map[string]float64{
				"served":       float64(srv.Completed()),
				"serve_p50_ms": stats.Percentile(ms, 50),
				"serve_p95_ms": stats.Percentile(ms, 95),
				"serve_p99_ms": stats.Percentile(ms, 99),
				"serve_max_ms": stats.Max(ms),
			},
		}
	}}
}

// tpchWorkload is the §3.3 commercial database: a worker pool split into
// containers (sized to the machine), transient kernel noise, and the
// full 22-query benchmark. Extra records Q18's latency, the query "most
// sensitive to the bug".
func tpchWorkload() Workload {
	return Workload{Name: "tpch", Run: func(rc *RunContext) Outcome {
		cores := rc.Topo.NumCores()
		db := workload.NewTPCH(rc.M, workload.TPCHOpts{
			Containers: []int{cores / 2, cores / 4, cores / 4},
			Autogroups: true,
			Scale:      rc.Scale,
			Seed:       rc.Seed,
		})
		nopts := workload.DefaultNoiseOpts()
		nopts.Seed = rc.Seed + 1
		noise := workload.StartNoise(rc.M, nopts)
		defer noise.Stop()
		rc.M.Run(50 * sim.Millisecond) // let the pool spread and park
		lats, done := db.RunAll(rc.Horizon)
		if !done {
			return Outcome{Makespan: rc.Horizon, Completed: false}
		}
		var full, q18 sim.Time
		for q, l := range lats {
			full += l
			if q == workload.Q18Index {
				q18 = l
			}
		}
		return Outcome{
			Makespan:  full,
			Completed: true,
			Extra: map[string]float64{
				"q18_s": q18.Seconds(),
			},
		}
	}}
}

// globalqWorkload runs the §2.2 runqueue-design model at the machine's
// core count: one shared global queue versus per-core queues. The
// simulated machine is unused — the model has its own tiny engine — but
// the topology chooses the core count and the derived seed keeps the run
// tied to the scenario. Makespan is the shared-queue makespan; Extra
// records both designs' switch-overhead fractions.
func globalqWorkload() Workload {
	return Workload{Name: "globalq", Run: func(rc *RunContext) Outcome {
		cores := rc.Topo.NumCores()
		work := scaleDur(20*sim.Millisecond, rc.Scale, sim.Millisecond)
		shared := globalq.RunOne(globalq.DefaultConfig(cores), globalq.SharedQueue, rc.Seed, cores*8, work)
		perCore := globalq.RunOne(globalq.DefaultConfig(cores), globalq.PerCoreQueue, rc.Seed, cores*8, work)
		return Outcome{
			Makespan:  shared.Makespan,
			Completed: true,
			Extra: map[string]float64{
				"shared_overhead_frac":  shared.OverheadFraction(),
				"percore_overhead_frac": perCore.OverheadFraction(),
				"shared_vs_percore_x":   shared.Makespan.Seconds() / perCore.Makespan.Seconds(),
			},
		}
	}}
}
