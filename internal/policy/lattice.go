package policy

import (
	"strings"

	"repro/internal/sched"
)

// LatticeConfigName renders the canonical policy name of one fix set:
// "fx-" plus its short names ("fx-none", "fx-gi+oow"; see
// sched.Features.String).
func LatticeConfigName(f sched.Features) string { return "fx-" + f.String() }

// ParseLatticeConfigName is LatticeConfigName's inverse: it maps an
// "fx-*" name back to its fix set, and reports false for any other name.
func ParseLatticeConfigName(name string) (sched.Features, bool) {
	s, ok := strings.CutPrefix(name, "fx-")
	if !ok {
		return 0, false
	}
	return sched.ParseFeatures(s)
}

// LatticeConfigs enumerates the full 2^4 bug-fix lattice: one Policy
// per subset of the paper's four fixes, indexed by the set
// (LatticeConfigs()[f].Config.Features == f). LatticeConfigs()[0] is
// the studied kernel, LatticeConfigs()[sched.AllFixes] the fully fixed
// one. The bisection subsystem fans these through the campaign runner
// to name minimal fix sets per scenario; all sixteen are also
// registered, so ByName resolves any "fx-*" name.
func LatticeConfigs() []Policy {
	out := make([]Policy, 0, sched.AllFixes+1)
	for f := range sched.AllFixes + 1 {
		out = append(out, Policy{
			Name:    LatticeConfigName(f),
			Desc:    "fix-lattice point " + LatticeConfigName(f),
			Version: 1,
			Config:  sched.DefaultConfig().WithFixes(f),
		})
	}
	return out
}
