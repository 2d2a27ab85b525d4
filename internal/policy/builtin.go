package policy

import (
	"repro/internal/globalq"
	"repro/internal/sched"
)

// The stock policies. Registration order is listing order; every
// builtin is version 1 until its behaviour changes. The first eight
// reproduce the campaign package's historical config set byte for byte
// (scenario keys and artifact bytes must not move when a config becomes
// a registered policy); the rest span the taxonomy axes the tournament
// harness compares.
func init() {
	builtin := func(p Policy) {
		if p.Version == 0 {
			p.Version = 1
		}
		MustRegister(p)
		builtinNames = append(builtinNames, p.Name)
	}
	fixes := func(name, desc string, f sched.Features) Policy {
		return Policy{Name: name, Desc: desc, Config: sched.DefaultConfig().WithFixes(f)}
	}

	// The historical campaign configs.
	builtin(fixes("bugs", "the studied kernel: all four bugs present", 0))
	builtin(fixes("fix-gi", "Group Imbalance fix only (§3.1)", sched.FixGroupImbalance))
	builtin(fixes("fix-gc", "Group Construction fix only (§3.2)", sched.FixGroupConstruction))
	builtin(fixes("fix-oow", "Overload-on-Wakeup fix only (§3.3)", sched.FixOverloadWakeup))
	builtin(fixes("fix-md", "Missing Domains fix only (§3.4)", sched.FixMissingDomains))
	builtin(fixes("fixed", "all four fixes: the patched CFS model", sched.AllFixes))
	builtin(Policy{
		Name: "powersave",
		Desc: "all fixes under the power-saving policy that disarms the OoW fix",
		Config: func() sched.Config {
			c := sched.DefaultConfig().WithFixes(sched.AllFixes)
			c.Power = sched.PowerSaving
			return c
		}(),
	})
	builtin(Policy{
		Name:    "modsched",
		Desc:    "the §5 modular redesign: core module + three suggestion modules",
		Config:  sched.DefaultConfig(),
		Modules: []string{"cache-affinity", "load-spread", "numa-locality"},
	})

	// The §2.2 queue designs as machine-level disciplines.
	builtin(Policy{
		Name:   "globalq-shared",
		Desc:   "shared global runqueue: work-conserving, locality-blind (§2.2)",
		Config: globalq.SharedConfig(),
		Attach: func(s *sched.Scheduler) func() {
			return globalq.AttachShared(s).Detach
		},
	})
	builtin(Policy{
		Name:   "globalq-percore",
		Desc:   "static per-core runqueues: no balancing, wakeups stay home (§2.2)",
		Config: globalq.PerCoreConfig(),
		Attach: func(s *sched.Scheduler) func() {
			return globalq.AttachPerCore(s).Detach
		},
	})

	// Placement-axis variants on the fully fixed balancer.
	builtin(Policy{
		Name:   "greedy-idlest",
		Desc:   "wake on the longest-idle core anywhere, else least-loaded",
		Config: fixedConfig(),
		Attach: attachPlacement(func(s *sched.Scheduler) sched.PlacementPolicy {
			return greedyIdlest{s}
		}),
	})
	builtin(Policy{
		Name:   "affinity-strict",
		Desc:   "always wake on the previous core, busy or not",
		Config: fixedConfig(),
		Attach: attachPlacement(func(s *sched.Scheduler) sched.PlacementPolicy {
			return affinityStrict{}
		}),
	})
	builtin(Policy{
		Name:   "numa-blind",
		Desc:   "always wake on the least-loaded core, ignoring locality",
		Config: fixedConfig(),
		Attach: attachPlacement(func(s *sched.Scheduler) sched.PlacementPolicy {
			return numaBlind{s}
		}),
	})

	// The sixteen fx-* lattice points, resolvable like any other policy.
	for _, p := range LatticeConfigs() {
		MustRegister(p)
	}
}
