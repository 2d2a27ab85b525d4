package campaign

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TopologySpec is a named machine shape. Build must return a fresh
// Topology on every call (scenarios run concurrently and must not share
// mutable state).
type TopologySpec struct {
	Name  string
	Build func() *topology.Topology
}

// ConfigSpec is a scenario's config coordinate: a registered scheduler
// policy (see internal/policy). The alias keeps historical call sites —
// struct literals with Name/Config/Modules, field access on
// Scenario.Config — compiling unchanged while making the policy
// registry the single source of named configurations.
type ConfigSpec = policy.Policy

// Matrix declares a campaign: the cross-product of every listed
// dimension. A matrix with T topologies, W workloads, C configs and S
// seeds enumerates T*W*C*S scenarios.
type Matrix struct {
	Topologies []TopologySpec
	Workloads  []Workload
	Configs    []ConfigSpec
	Seeds      []int64

	// Scale multiplies workload sizes (0 = 1.0, paper scale).
	Scale float64
	// Horizon bounds each scenario in virtual time (0 = 200 virtual
	// seconds, the experiments default).
	Horizon sim.Time
}

// Scenario is one fully-resolved cell of the matrix.
type Scenario struct {
	Topology TopologySpec
	Workload Workload
	Config   ConfigSpec
	Seed     int64
	Scale    float64
	Horizon  sim.Time
}

// Key is the scenario's stable identity. It names coordinates, never
// indices, so reordering or extending the matrix does not change the
// keys (and therefore the derived seeds) of existing scenarios.
func (s Scenario) Key() string {
	return fmt.Sprintf("%s/%s/%s/s%d", s.Topology.Name, s.Workload.Name, s.Config.Name, s.Seed)
}

// CellKey is the scenario's identity with the config dimension removed:
// the (topology, workload, seed) cell it belongs to. Engine seeds derive
// from the cell, not the full key, so every config of a cell sees the
// same jitter stream — the property that makes lattice runs of one cell
// comparable point-for-point, and that lets the collapsed cell runner
// copy a config's result to every config the divergence probe proves
// equal to it.
func (s Scenario) CellKey() string {
	return fmt.Sprintf("%s/%s/s%d", s.Topology.Name, s.Workload.Name, s.Seed)
}

func (m Matrix) withDefaults() Matrix {
	if m.Scale == 0 {
		m.Scale = 1
	}
	if m.Horizon == 0 {
		m.Horizon = 200 * sim.Second
	}
	if len(m.Seeds) == 0 {
		m.Seeds = []int64{1}
	}
	return m
}

// Size returns the number of scenarios the matrix enumerates.
func (m Matrix) Size() int {
	m = m.withDefaults()
	return len(m.Topologies) * len(m.Workloads) * len(m.Configs) * len(m.Seeds)
}

// Scenarios enumerates the cross-product in a deterministic order
// (topology-major, then workload, config, seed). Order only affects
// scheduling, never the artifact: results are keyed and sorted.
func (m Matrix) Scenarios() []Scenario {
	m = m.withDefaults()
	var out []Scenario
	for _, t := range m.Topologies {
		for _, w := range m.Workloads {
			for _, c := range m.Configs {
				for _, s := range m.Seeds {
					out = append(out, Scenario{
						Topology: t,
						Workload: w,
						Config:   c,
						Seed:     s,
						Scale:    m.Scale,
						Horizon:  m.Horizon,
					})
				}
			}
		}
	}
	return out
}

// --- builtin registries --------------------------------------------------

// The topology registry: a once-built map with registration order
// preserved, extendable through RegisterTopology.
var (
	topoMu     sync.RWMutex
	topoByName = map[string]TopologySpec{}
	topoOrder  []string
)

// RegisterTopology adds a named machine shape to the registry. It
// errors on an empty or duplicate name.
func RegisterTopology(t TopologySpec) error {
	if t.Name == "" || t.Build == nil {
		return fmt.Errorf("campaign: topology must have a name and a builder")
	}
	topoMu.Lock()
	defer topoMu.Unlock()
	if _, dup := topoByName[t.Name]; dup {
		return fmt.Errorf("campaign: duplicate topology name %q", t.Name)
	}
	topoByName[t.Name] = t
	topoOrder = append(topoOrder, t.Name)
	return nil
}

// MustRegisterTopology is RegisterTopology that panics on error.
func MustRegisterTopology(t TopologySpec) {
	if err := RegisterTopology(t); err != nil {
		panic(err)
	}
}

func init() {
	MustRegisterTopology(TopologySpec{Name: "bulldozer8", Build: topology.Bulldozer8})
	MustRegisterTopology(TopologySpec{Name: "machine32", Build: topology.Machine32})
	MustRegisterTopology(TopologySpec{Name: "twonode8", Build: func() *topology.Topology { return topology.TwoNode(8) }})
	MustRegisterTopology(TopologySpec{Name: "smp8", Build: func() *topology.Topology { return topology.SMP(8) }})
	MustRegisterTopology(TopologySpec{Name: "grid2x2", Build: func() *topology.Topology { return topology.Grid(2, 2, 4) }})
	MustRegisterTopology(TopologySpec{Name: "ring4", Build: func() *topology.Topology { return topology.Ring(4, 4) }})
}

// BuiltinTopologies lists the registered machine shapes in registration
// order (the stock shapes first).
func BuiltinTopologies() []TopologySpec {
	topoMu.RLock()
	defer topoMu.RUnlock()
	out := make([]TopologySpec, 0, len(topoOrder))
	for _, name := range topoOrder {
		out = append(out, topoByName[name])
	}
	return out
}

// TopologyByName finds a registered topology spec.
func TopologyByName(name string) (TopologySpec, bool) {
	topoMu.RLock()
	defer topoMu.RUnlock()
	t, ok := topoByName[name]
	return t, ok
}

// BuiltinConfigs lists the curated registered policies: the studied
// kernel ("bugs"), each fix alone, all fixes, the power-saving variant,
// the modular-scheduler redesign, the §2.2 globalq queue designs, and
// the placement-axis variants. It forwards to policy.Builtin; the
// sixteen fx-* lattice points are registered too but enumerated via
// LatticeConfigs.
func BuiltinConfigs() []ConfigSpec { return policy.Builtin() }

// ConfigByName resolves any registered policy name, including the 16
// "fx-*" lattice configurations (see LatticeConfigs).
func ConfigByName(name string) (ConfigSpec, bool) { return policy.ByName(name) }

// LatticeFixNames lists the short fix names in canonical bit order
// (forwards to the policy registry, which owns the lattice).
func LatticeFixNames() []string { return policy.LatticeFixNames() }

// LatticeConfigName renders the canonical config name of one lattice
// mask: "fx-none" for the studied kernel, else "fx-" plus the enabled
// short names joined with "+" in canonical order (e.g. "fx-gi+oow").
func LatticeConfigName(mask int) string { return policy.LatticeConfigName(mask) }

// LatticeConfigs enumerates the full 2^4 bug-fix lattice, indexed by
// mask — see policy.LatticeConfigs.
func LatticeConfigs() []ConfigSpec { return policy.LatticeConfigs() }

// specNames joins the Name fields for usage strings.
func specNames[T any](specs []T, name func(T) string) string {
	var names []string
	for _, s := range specs {
		names = append(names, name(s))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// TopologyNames lists the builtin topology names, sorted.
func TopologyNames() string {
	return specNames(BuiltinTopologies(), func(t TopologySpec) string { return t.Name })
}

// ConfigNames lists every name ConfigByName accepts: the builtin config
// names, sorted, plus the pattern of the 16 lattice points.
func ConfigNames() string {
	return specNames(BuiltinConfigs(), func(c ConfigSpec) string { return c.Name }) +
		", plus fx-none and fx-<fix>[+<fix>...] with fixes " + strings.Join(LatticeFixNames(), ", ") +
		" in that order"
}

// WorkloadNames lists every name WorkloadByName accepts: the builtin
// workload names, sorted, plus the pattern of each registered family.
func WorkloadNames() string {
	loadMu.RLock()
	patterns := make([]string, len(families))
	for i, f := range families {
		patterns[i] = f.pattern
	}
	loadMu.RUnlock()
	return specNames(BuiltinWorkloads(), func(w Workload) string { return w.Name }) +
		", plus " + strings.Join(patterns, ", ")
}

// --- preset matrices -----------------------------------------------------

// MustTopologies resolves builtin topology names, panicking on unknown
// ones — for presets and test fixtures where the names are literals.
func MustTopologies(names ...string) []TopologySpec {
	var out []TopologySpec
	for _, n := range names {
		t, ok := TopologyByName(n)
		if !ok {
			panic("campaign: unknown builtin topology " + n)
		}
		out = append(out, t)
	}
	return out
}

// MustWorkloads resolves builtin workload names (including the dynamic
// nas:/nas-pin:/nas-hotplug: families), panicking on unknown ones.
func MustWorkloads(names ...string) []Workload {
	var out []Workload
	for _, n := range names {
		w, ok := WorkloadByName(n)
		if !ok {
			panic("campaign: unknown builtin workload " + n)
		}
		out = append(out, w)
	}
	return out
}

// MustConfigs resolves registered policy names, panicking on unknown
// ones — for presets and test fixtures where the names are literals.
func MustConfigs(names ...string) []ConfigSpec {
	var out []ConfigSpec
	for _, n := range names {
		c, ok := ConfigByName(n)
		if !ok {
			panic("campaign: unknown config/policy " + n)
		}
		out = append(out, c)
	}
	return out
}

// DefaultMatrix is the standard 30-scenario sweep: both paper machines;
// the §3.1 make+R mix, the Table 1 pinned NAS run, and the §3.3
// database; the studied kernel against the three single-fix kernels
// those workloads are sensitive to, and the fully-fixed kernel.
func DefaultMatrix() Matrix {
	return Matrix{
		Topologies: MustTopologies("bulldozer8", "machine32"),
		Workloads:  MustWorkloads("make2r", "nas-pin:lu", "tpch"),
		Configs:    MustConfigs("bugs", "fix-gi", "fix-gc", "fix-oow", "fixed"),
		Seeds:      []int64{1},
	}
}

// SmokeMatrix is a small fast sweep for tests and CI.
func SmokeMatrix() Matrix {
	return Matrix{
		Topologies: MustTopologies("smp8", "twonode8"),
		Workloads:  MustWorkloads("make2r", "globalq"),
		Configs:    MustConfigs("bugs", "fixed"),
		Seeds:      []int64{1},
		Scale:      0.1,
	}
}

// FullMatrix is the wide sweep: every builtin topology, workload and
// config across two seeds.
func FullMatrix() Matrix {
	return Matrix{
		Topologies: BuiltinTopologies(),
		Workloads:  BuiltinWorkloads(),
		Configs:    BuiltinConfigs(),
		Seeds:      []int64{1, 2},
	}
}

// MatrixByName resolves a preset name.
func MatrixByName(name string) (Matrix, bool) {
	switch name {
	case "default":
		return DefaultMatrix(), true
	case "smoke":
		return SmokeMatrix(), true
	case "full":
		return FullMatrix(), true
	}
	return Matrix{}, false
}
