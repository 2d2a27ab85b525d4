package workload

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

func fixedMachine(topo *topology.Topology, seed int64) *machine.Machine {
	return machine.New(topo, sched.DefaultConfig().WithFixes(sched.AllFixes), seed)
}

func TestNASSuiteShape(t *testing.T) {
	suite := NASSuite()
	if len(suite) != 9 {
		t.Fatalf("suite has %d apps, want 9", len(suite))
	}
	names := map[string]bool{}
	for _, a := range suite {
		if names[a.Name] {
			t.Fatalf("duplicate app %s", a.Name)
		}
		names[a.Name] = true
		if a.Iterations <= 0 || a.Grain <= 0 {
			t.Fatalf("%s has degenerate parameters", a.Name)
		}
	}
	for _, want := range []string{"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp", "ua"} {
		if !names[want] {
			t.Fatalf("missing app %s", want)
		}
	}
}

func TestNASAppByName(t *testing.T) {
	if _, ok := NASAppByName("lu"); !ok {
		t.Fatal("lu not found")
	}
	if _, ok := NASAppByName("nope"); ok {
		t.Fatal("found nonexistent app")
	}
}

func TestEachNASAppCompletes(t *testing.T) {
	for _, a := range NASSuite() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			m := fixedMachine(topology.TwoNode(4), 3)
			p := a.Launch(m, NASLaunchOpts{Threads: 8, SpawnCore: 0, Seed: 5, Scale: 0.1})
			if _, ok := m.RunUntilDone(60*sim.Second, p); !ok {
				t.Fatalf("%s did not complete", a.Name)
			}
			if p.TotalExec() == 0 {
				t.Fatalf("%s consumed no CPU", a.Name)
			}
		})
	}
}

func TestNASRespectsTaskset(t *testing.T) {
	m := fixedMachine(topology.TwoNode(2), 3)
	aff := NodeSet(m.Topo, 1)
	app, _ := NASAppByName("ep")
	p := app.Launch(m, NASLaunchOpts{Threads: 2, Affinity: aff, SpawnCore: 2, Seed: 1, Scale: 0.2})
	m.Run(50 * sim.Millisecond)
	for _, th := range p.Threads() {
		if m.Topo.NodeOf(th.T.CPU()) != 1 {
			t.Fatalf("thread escaped taskset to node %d", m.Topo.NodeOf(th.T.CPU()))
		}
	}
	if _, ok := m.RunUntilDone(60*sim.Second, p); !ok {
		t.Fatal("did not complete")
	}
}

func TestNodeSet(t *testing.T) {
	topo := topology.Bulldozer8()
	s := NodeSet(topo, 1, 2)
	if s.Count() != 16 {
		t.Fatalf("count = %d", s.Count())
	}
	if !s.Has(8) || !s.Has(23) || s.Has(0) || s.Has(24) {
		t.Fatal("membership wrong")
	}
}

func TestMakeCompletes(t *testing.T) {
	m := fixedMachine(topology.TwoNode(4), 3)
	opts := MakeOpts{Threads: 16, JobsPerThread: 4, JobGrain: sim.Millisecond, Seed: 2}
	p := LaunchMake(m, opts)
	if len(p.Threads()) != 16 {
		t.Fatalf("threads = %d", len(p.Threads()))
	}
	if p.Group() == nil {
		t.Fatal("make must have its own autogroup")
	}
	if _, ok := m.RunUntilDone(30*sim.Second, p); !ok {
		t.Fatal("make did not complete")
	}
}

func TestRIsSingleThreadHog(t *testing.T) {
	m := fixedMachine(topology.SMP(2), 3)
	p := LaunchR(m, 0, 50*sim.Millisecond)
	if len(p.Threads()) != 1 {
		t.Fatal("R must be single-threaded")
	}
	end, ok := m.RunUntilDone(sim.Second, p)
	if !ok {
		t.Fatal("R did not complete")
	}
	if end < 50*sim.Millisecond {
		t.Fatalf("R finished early: %v", end)
	}
}

func TestTPCHDefaults(t *testing.T) {
	opts := DefaultTPCHOpts()
	total := 0
	for _, c := range opts.Containers {
		total += c
	}
	if total != 64 {
		t.Fatalf("default pool = %d workers, want 64", total)
	}
	if !opts.Autogroups {
		t.Fatal("default should use autogroups")
	}
}

func TestTPCHRunQuery(t *testing.T) {
	m := fixedMachine(topology.TwoNode(4), 3)
	db := NewTPCH(m, TPCHOpts{Containers: []int{4, 4}, Autogroups: true, Seed: 1, Scale: 0.5})
	if len(db.Workers()) != 8 {
		t.Fatalf("workers = %d", len(db.Workers()))
	}
	m.Run(20 * sim.Millisecond) // let workers park
	lat, ok := db.RunQuery(0, 0, 30*sim.Second)
	if !ok {
		t.Fatal("query did not complete")
	}
	if lat <= 0 {
		t.Fatalf("latency = %v", lat)
	}
	if !db.Queue().Idle() {
		t.Fatal("queue not drained after query")
	}
}

func TestTPCHRunAllProducesAllLatencies(t *testing.T) {
	m := fixedMachine(topology.TwoNode(4), 3)
	db := NewTPCH(m, TPCHOpts{Containers: []int{8}, Autogroups: true, Seed: 1, Scale: 0.2})
	m.Run(20 * sim.Millisecond)
	lats, ok := db.RunAll(60 * sim.Second)
	if !ok {
		t.Fatalf("benchmark incomplete: %d queries", len(lats))
	}
	if len(lats) != NumQueries {
		t.Fatalf("latencies = %d, want %d", len(lats), NumQueries)
	}
	for q, l := range lats {
		if l <= 0 {
			t.Fatalf("query %d latency %v", q+1, l)
		}
	}
}

func TestQ18IsStragglerSensitive(t *testing.T) {
	// Q18's shape has the most stages (sync points).
	m := fixedMachine(topology.TwoNode(2), 3)
	db := NewTPCH(m, TPCHOpts{Containers: []int{4}, Autogroups: true, Seed: 1})
	q18 := db.shapes[Q18Index]
	for i, s := range db.shapes {
		if i != Q18Index && s.stages > q18.stages {
			t.Fatalf("query %d has more stages than Q18", i+1)
		}
	}
}

func TestNoiseSpawnsAndStops(t *testing.T) {
	m := fixedMachine(topology.SMP(4), 3)
	n := StartNoise(m, NoiseOpts{MeanInterval: sim.Millisecond, MinDur: 100 * sim.Microsecond, MaxDur: 300 * sim.Microsecond, Seed: 4})
	m.Run(50 * sim.Millisecond)
	if n.Spawned < 20 {
		t.Fatalf("spawned = %d, want ~50", n.Spawned)
	}
	count := n.Spawned
	n.Stop()
	m.Run(50 * sim.Millisecond)
	if n.Spawned != count {
		t.Fatal("noise kept spawning after Stop")
	}
	// All bursts finish (they are sub-millisecond).
	for _, p := range m.Procs() {
		if p.Name() == "kworker" && !p.Done() {
			t.Fatal("noise burst stuck")
		}
	}
}

func TestJitterBounds(t *testing.T) {
	m := fixedMachine(topology.SMP(1), 3)
	_ = m
	// jitter(d, 0) is identity.
	if got := jitter(nil, 5*sim.Millisecond, 0); got != 5*sim.Millisecond {
		t.Fatalf("jitter(0) = %v", got)
	}
}

func TestLUPipelineUsesSpinFlags(t *testing.T) {
	// lu's wavefront must couple neighbours: with one thread per core,
	// stage i's first completion cannot precede stage i-1's.
	m := fixedMachine(topology.SMP(8), 3)
	lu, _ := NASAppByName("lu")
	p := lu.Launch(m, NASLaunchOpts{Threads: 8, SpawnCore: 0, Seed: 5, Scale: 0.05})
	if _, ok := m.RunUntilDone(60*sim.Second, p); !ok {
		t.Fatal("lu did not complete")
	}
	ths := p.Threads()
	for i := 1; i < len(ths); i++ {
		if ths[i].FinishedAt() < ths[i-1].FinishedAt() {
			t.Fatalf("stage %d finished before stage %d: pipeline not coupled", i, i-1)
		}
	}
}

func TestUAShardsLocks(t *testing.T) {
	// ua at 64 threads gets 4 lock shards (threads/16); at 16 threads, 1.
	m := fixedMachine(topology.Bulldozer8(), 3)
	ua, _ := NASAppByName("ua")
	ua.Launch(m, NASLaunchOpts{Threads: 64, SpawnCore: 0, Seed: 5, Scale: 0.02})
	if got := countLocks(m); got != 4 {
		t.Fatalf("lock shards at 64 threads = %d, want 4", got)
	}
	m2 := fixedMachine(topology.Bulldozer8(), 3)
	ua.Launch(m2, NASLaunchOpts{Threads: 16, SpawnCore: 0, Seed: 5, Scale: 0.02})
	if got := countLocks(m2); got != 1 {
		t.Fatalf("lock shards at 16 threads = %d, want 1", got)
	}
}

// TestNASLaunchAllocatesProgramsOnce bounds a launch's allocation by
// roughly the size of its scripts: lu at 64 threads draws 28,800
// durations, 230 KB at 8 bytes each, and with its rolled programs and
// threads the launch allocates 0.35 MB. Unrolling the loops, one
// 32-byte instruction per step, allocates 5.0 MB even through one
// reused builder, so the bound catches a return to unrolled programs.
func TestNASLaunchAllocatesProgramsOnce(t *testing.T) {
	const limitMB = 1
	m := fixedMachine(topology.SMP(64), 3)
	lu, _ := NASAppByName("lu")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lu.Launch(m, NASLaunchOpts{Threads: 64, SpawnCore: 0, Seed: 5, Scale: 1})
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > limitMB {
		t.Fatalf("launching lu with 64 threads allocated %.1f MB, want at most %d MB", mb, limitMB)
	}
}

// countLocks reports how many spin locks have been created on m: lock ids
// are sequential, so a fresh lock's id equals the count so far.
func countLocks(m *machine.Machine) int {
	return m.NewSpinLock().ID()
}

func TestFixedWorkScaling(t *testing.T) {
	// NPB fixed problem size: ep's total work is thread-count invariant,
	// so on an uncontended machine the 32-thread run is ~2x faster than
	// the 16-thread run (same work, double the cores).
	run := func(threads int) sim.Time {
		m := fixedMachine(topology.Bulldozer8(), 3)
		ep, _ := NASAppByName("ep")
		p := ep.Launch(m, NASLaunchOpts{Threads: threads, SpawnCore: 0, Seed: 5, Scale: 0.3})
		end, ok := m.RunUntilDone(60*sim.Second, p)
		if !ok {
			t.Fatal("ep did not complete")
		}
		return end
	}
	t16 := run(16)
	t32 := run(32)
	ratio := float64(t16) / float64(t32)
	// ep's cap is 32: 16 threads run at full rate, 32 threads at full
	// rate too, so halving grain halves runtime (minus spread overhead).
	if ratio < 1.4 || ratio > 2.4 {
		t.Fatalf("16t/32t ratio = %.2f, want ~2 (fixed total work)", ratio)
	}
}

func TestTPCHDeterminism(t *testing.T) {
	run := func() sim.Time {
		m := fixedMachine(topology.TwoNode(4), 9)
		db := NewTPCH(m, TPCHOpts{Containers: []int{6}, Autogroups: true, Seed: 2, Scale: 0.3})
		m.Run(20 * sim.Millisecond)
		lat, ok := db.RunQuery(3, 1, 30*sim.Second)
		if !ok {
			t.Fatal("query incomplete")
		}
		return lat
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("TPC-H not deterministic: %v vs %v", a, b)
	}
}

// TestNASJitterSeedsDecorrelated is the regression test for the jitter
// seed collision: every NAS app name is two characters long, and the
// old perturbation (Seed ^ len(Name)) therefore seeded one identical
// jitter stream for the whole suite under any campaign seed. Each app
// must now draw a distinct stream from the same launch Seed.
func TestNASJitterSeedsDecorrelated(t *testing.T) {
	suite := NASSuite()
	const launchSeed = int64(7)
	streams := map[string][4]float64{}
	for _, a := range suite {
		// The exact construction Launch uses for its jitter RNG.
		rng := rand.New(rand.NewSource(launchSeed ^ nameSeed(a.Name)))
		var draws [4]float64
		for i := range draws {
			draws[i] = rng.Float64()
		}
		streams[a.Name] = draws
	}
	for _, a := range suite {
		for _, b := range suite {
			if a.Name < b.Name && streams[a.Name] == streams[b.Name] {
				t.Errorf("apps %s and %s draw identical first jitter values %v from seed %d",
					a.Name, b.Name, streams[a.Name], launchSeed)
			}
		}
	}
	// And the perturbation must still be a pure function of the name.
	if nameSeed("lu") != nameSeed("lu") {
		t.Error("nameSeed not deterministic")
	}
}

// TestSeededRandMatchesFresh: a generator that drew before and was then
// reseeded, and whatever generator seededRand takes from the pool, draw
// exactly what a fresh rand.New(rand.NewSource(seed)) draws, so pooling
// changes no launch's script or query shapes.
func TestSeededRandMatchesFresh(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40, nameSeed("lu")} {
		used := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
		for i := 0; i < 1000; i++ {
			used.Float64()
		}
		used.Seed(seed)
		pooled := seededRand(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 100_000; i++ {
			f, n := fresh.Float64(), fresh.Intn(1000)
			for _, r := range []*rand.Rand{used, pooled} {
				if rf, rn := r.Float64(), r.Intn(1000); rf != f || rn != n {
					t.Fatalf("seed %d, draw %d: reseeded (%v, %d), fresh (%v, %d)", seed, i, rf, rn, f, n)
				}
			}
		}
		randPool.Put(pooled)
	}
}
