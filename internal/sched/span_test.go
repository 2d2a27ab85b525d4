package sched_test

import (
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestDomainSpanIsUnionOfGroups: every domain's Span equals the union of
// its Groups, on every registered campaign topology (the registry every
// matrix draws from), under all four group-construction and
// missing-domains settings, at start and after each of five hotplug
// steps. The balancer's NoBusiest fast path folds the loads of the busy
// cores of d.Span where the full pass folds those of d.Groups, so the
// two sets must be one. The test lives outside package sched because
// an in-package test cannot import campaign.
func TestDomainSpanIsUnionOfGroups(t *testing.T) {
	settings := []sched.Features{
		0,
		sched.FixGroupConstruction,
		sched.FixMissingDomains,
		sched.FixGroupConstruction | sched.FixMissingDomains,
	}
	for _, spec := range campaign.BuiltinTopologies() {
		for _, f := range settings {
			topo := spec.Build()
			s := sched.New(sim.New(1), topo, sched.DefaultConfig().WithFixes(f))
			s.Start()
			checkSpans(t, fmt.Sprintf("%s %+v at start", spec.Name, f), s)
			n := topo.NumCores()
			steps := []struct {
				cpu    topology.CoreID
				enable bool
			}{{topology.CoreID(n - 1), false}, {topology.CoreID(n / 2), false}, {topology.CoreID(n - 1), true}, {1, false}, {topology.CoreID(n / 2), true}}
			for i, st := range steps {
				var err error
				if st.enable {
					err = s.EnableCPU(st.cpu)
				} else {
					err = s.DisableCPU(st.cpu)
				}
				if err != nil {
					t.Fatalf("%s %+v step %d: %v", spec.Name, f, i, err)
				}
				checkSpans(t, fmt.Sprintf("%s %+v after hotplug step %d (cpu %d, enable=%v)", spec.Name, f, i, st.cpu, st.enable), s)
			}
		}
	}
}

// checkSpans asserts Span == ∪ Groups for every domain of every online
// core.
func checkSpans(t *testing.T, stage string, s *sched.Scheduler) {
	t.Helper()
	for _, cpu := range s.OnlineCPUs() {
		for _, d := range s.Domains(cpu) {
			var union sched.CPUSet
			for _, g := range d.Groups {
				union = union.Or(g)
			}
			if !union.Equal(d.Span) {
				t.Fatalf("%s: cpu %d %s: span %s, union of groups %s", stage, cpu, d.Name, d.Span, union)
			}
		}
	}
}
