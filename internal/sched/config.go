package sched

import (
	"slices"
	"strings"

	"repro/internal/sim"
)

// Features is a set of the paper's four bug fixes, one bit each. The
// zero value reproduces the kernel the paper studied: all four bugs
// present. This mirrors the paper's evaluation design, where fixes are
// enabled one at a time and in combination (Table 2): the sixteen values
// 0..AllFixes are the fix lattice that campaigns, bisection and explain
// walk, and the bit order below is its canonical order.
type Features uint8

// The four fixes, in lattice order.
const (
	// FixGroupImbalance switches the load-balancer's scheduling-group
	// comparison from average load to minimum load (§3.1): "Instead of
	// comparing the average loads, we compare the minimum loads."
	FixGroupImbalance Features = 1 << iota

	// FixGroupConstruction builds scheduling groups from the perspective
	// of each core rather than from the perspective of Core 0 (§3.2),
	// repairing load balancing between nodes that are two hops apart.
	FixGroupConstruction

	// FixOverloadWakeup changes wakeup placement (§3.3): wake on the
	// thread's previous core if idle; otherwise on the core that has been
	// idle the longest; otherwise fall back to the original
	// cache-affinity path. Only enforced under PowerPerformance, as in
	// the paper.
	FixOverloadWakeup

	// FixMissingDomains restores the regeneration of node-spanning
	// scheduling domains after CPU hotplug (§3.4): the upstream code
	// "dropped the call to the function generating domains across NUMA
	// nodes during code refactoring".
	FixMissingDomains

	// AllFixes enables every fix: the top of the lattice.
	AllFixes = FixGroupImbalance | FixGroupConstruction | FixOverloadWakeup | FixMissingDomains
)

// Fixes lists the four single fixes in lattice order.
var Fixes = []Features{FixGroupImbalance, FixGroupConstruction, FixOverloadWakeup, FixMissingDomains}

// fixNames are the short names of Fixes, index for index.
var fixNames = []string{"gi", "gc", "oow", "md"}

// Has reports whether f contains every fix of g.
func (f Features) Has(g Features) bool { return f&g == g }

// String renders the set with the short fix names joined by "+" in
// lattice order ("gi+oow"), or "none" for the empty set.
func (f Features) String() string {
	var parts []string
	for i, fix := range Fixes {
		if f.Has(fix) {
			parts = append(parts, fixNames[i])
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ParseFeatures is String's inverse. It rejects unknown and repeated
// fix names.
func ParseFeatures(s string) (Features, bool) {
	if s == "none" {
		return 0, true
	}
	var f Features
	for _, part := range strings.Split(s, "+") {
		i := slices.Index(fixNames, part)
		if i < 0 || f.Has(Fixes[i]) {
			return 0, false
		}
		f |= Fixes[i]
	}
	return f, true
}

// PowerPolicy models the system power-management policy. The
// Overload-on-Wakeup fix is gated on it: "we only enforce the new wakeup
// strategy if the system's power management policy does not allow cores to
// enter low-power states at all" (§3.3).
type PowerPolicy int

// Power policies.
const (
	// PowerPerformance disallows deep idle states; the OoW fix applies.
	PowerPerformance PowerPolicy = iota
	// PowerSaving allows cores to enter low-power idle states; the OoW
	// fix steps aside to avoid waking them.
	PowerSaving
)

// Config carries the scheduler tunables. All defaults match the kernel
// values referenced by the paper (CFS sysctls, 4ms balance cadence, NOHZ
// enabled by default since 2.6.21).
type Config struct {
	// Latency is the targeted scheduling period: "a fixed time interval
	// during which each thread in the system must run at least once"
	// (§2.1). Kernel default 6ms.
	Latency sim.Time
	// MinGranularity is the smallest timeslice a thread receives when a
	// runqueue is crowded. Kernel default 0.75ms.
	MinGranularity sim.Time
	// WakeupGranularity limits wakeup preemption eagerness. Kernel
	// default 1ms.
	WakeupGranularity sim.Time
	// NrLatency is the runqueue length beyond which the period stretches
	// (Latency/MinGranularity in the kernel, i.e. 8).
	NrLatency int
	// TickPeriod is the periodic scheduler tick (1ms: CONFIG_HZ=1000).
	TickPeriod sim.Time
	// BalanceInterval is the base periodic load-balancing interval at the
	// bottom scheduling domain; level i balances every
	// BalanceInterval << i. The paper observes "one load balancing call
	// every 4ms" (Figure 5).
	BalanceInterval sim.Time
	// MigrationCost is the cache-hotness threshold: a thread that ran
	// within this window is not migrated unless balancing keeps failing.
	// Kernel default 0.5ms.
	MigrationCost sim.Time
	// MaxMigrate caps threads moved per balancing pass (sched_nr_migrate,
	// kernel default 32).
	MaxMigrate int
	// NOHZ enables tickless idle cores and the NOHZ-balancer handoff
	// described in §2.2.2. Enabled by default since Linux 2.6.21.
	NOHZ bool
	// DisableBalance turns the hierarchical load balancer off entirely —
	// periodic, new-idle and NOHZ passes all become no-ops. No shipping
	// kernel runs this way; it exists for policy variants that replace
	// balancing with their own discipline (the globalq queue-design
	// shims) or that model strict per-core queues with no cross-queue
	// movement at all. Wakeup placement and fork placement are
	// unaffected.
	DisableBalance bool
	// Power is the machine power policy (see PowerPolicy).
	Power PowerPolicy
	// Features is the set of enabled bug fixes (0: the studied kernel).
	Features Features
}

// DefaultConfig returns kernel-default tunables with all bugs present.
func DefaultConfig() Config {
	return Config{
		Latency:           6 * sim.Millisecond,
		MinGranularity:    750 * sim.Microsecond,
		WakeupGranularity: sim.Millisecond,
		NrLatency:         8,
		TickPeriod:        sim.Millisecond,
		BalanceInterval:   4 * sim.Millisecond,
		MigrationCost:     500 * sim.Microsecond,
		MaxMigrate:        32,
		NOHZ:              true,
		Power:             PowerPerformance,
	}
}

// WithFixes returns a copy of c with the given fixes enabled.
func (c Config) WithFixes(f Features) Config {
	c.Features = f
	return c
}
