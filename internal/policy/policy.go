// Package policy is the pluggable scheduler-policy registry: one place
// where every named point of the scheduler design space lives, whether
// it is expressed as bug-fix feature toggles (the 2^4 lattice of
// sched.Features), as modular placement suggestions (internal/modsched
// module stacks), as a wakeup placement override (sched.PlacementPolicy
// implementations), or as a whole queueing discipline (the
// internal/globalq §2.2 designs).
//
// Before this package those four mechanisms were disjoint: campaign
// configs were a rebuilt slice with linear-scan lookup, modsched kept
// its own module list, and globalq was only reachable through a bespoke
// analytic harness. A Policy value closes over all of them:
//
//   - Config is the sched.Config the machine boots with (tunables,
//     power policy, fix features, balancer on/off);
//   - Modules optionally names modsched optimization modules to attach
//     under the §5 core module;
//   - Attach optionally installs arbitrary machinery on the scheduler —
//     placement policies, queueing disciplines — and returns its undo.
//
// Policies register by name; duplicates are rejected, lookups are map
// hits, and the registered (name, version) pairs are stamped into
// campaign artifacts so shard merges and incremental re-runs can tell
// "same policy" from "same name, different behaviour".
package policy

import (
	"fmt"
	"sync"

	"repro/internal/modsched"
	"repro/internal/sched"
)

// Policy is one named, versioned point in the scheduler design space.
// The zero Modules/Attach case is a plain configuration (a lattice
// point, the fixed kernel); the non-zero cases carry mechanism.
type Policy struct {
	// Name is the registry key and the config coordinate of campaign
	// scenario keys ("topology/workload/<name>/sN").
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Version participates in artifact stamps and cache fingerprints:
	// bump it whenever the policy's behaviour changes so that cached
	// campaign cells run under the old behaviour invalidate. Builtin
	// policies are version 1; version 0 (an unregistered ad-hoc spec)
	// is never stamped.
	Version int
	// Config is the scheduler configuration the scenario's machine is
	// built with.
	Config sched.Config
	// Modules names modsched optimization modules to attach under the
	// core module (in priority order). Resolved at Apply time.
	Modules []string
	// Attach, when non-nil, installs extra machinery on the scheduler
	// after Modules and returns a function that removes it. It runs
	// once per scenario on a freshly built machine and must be
	// deterministic.
	Attach func(s *sched.Scheduler) (detach func())
}

// Apply installs the policy's mechanism (modules, then Attach) on a
// scheduler and returns a single detach that unwinds both. A policy
// with neither returns a no-op detach. The machine must have been built
// with p.Config for the policy to mean what its name says; Apply cannot
// verify that.
func (p Policy) Apply(s *sched.Scheduler) (detach func(), err error) {
	var undo []func()
	if len(p.Modules) > 0 {
		modules := make([]modsched.Module, 0, len(p.Modules))
		for _, name := range p.Modules {
			mod, ok := modsched.ModuleByName(name)
			if !ok {
				return nil, fmt.Errorf("policy %q: unknown modsched module %q", p.Name, name)
			}
			modules = append(modules, mod)
		}
		cm := modsched.Attach(s, modsched.Config{}, modules...)
		undo = append(undo, cm.Detach)
	}
	if p.Attach != nil {
		if det := p.Attach(s); det != nil {
			undo = append(undo, det)
		}
	}
	return func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}, nil
}

// The registry: a mutex-guarded map keyed by Policy.Name, with
// registration order preserved for stable listings. Builtins register
// from init; external packages extend the set through Register.
var (
	regMu        sync.RWMutex
	registry     = map[string]Policy{}
	regOrder     []string
	builtinNames []string
)

// Register adds a policy to the registry. It errors on an empty or
// duplicate name — two packages claiming one name is a bug, not a
// shadowing opportunity.
func Register(p Policy) error {
	if p.Name == "" {
		return fmt.Errorf("policy: empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[p.Name]; dup {
		return fmt.Errorf("policy: duplicate name %q", p.Name)
	}
	registry[p.Name] = p
	regOrder = append(regOrder, p.Name)
	return nil
}

// MustRegister is Register that panics on error — for init-time
// registration of policies whose names are literals.
func MustRegister(p Policy) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// ByName looks a registered policy up.
func ByName(name string) (Policy, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// All lists every registered policy in registration order (builtins
// first, then external registrations).
func All() []Policy {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Policy, 0, len(regOrder))
	for _, name := range regOrder {
		out = append(out, registry[name])
	}
	return out
}

// Builtin lists the curated named policies (the stock non-lattice set,
// in registration order). The fx-* lattice points are registered too
// but listed separately via LatticeConfigs — sixteen near-duplicates
// would drown every listing.
func Builtin() []Policy {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Policy, 0, len(builtinNames))
	for _, name := range builtinNames {
		out = append(out, registry[name])
	}
	return out
}
