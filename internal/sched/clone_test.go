package sched

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// cloneRules names every field of the structs Clone copies that it does
// not copy by value, with the rule it follows instead:
//
//   - shared: the clone points at the same immutable value;
//   - remapped: the clone points at its own copy of the referent;
//   - deep: the clone gets its own copy of the contents;
//   - reset: the clone starts without it (or, for the policy, Clone
//     panics).
//
// Every other field must be a value — a scalar, a string, or an array
// or struct of them — that Clone copies; TestCloneCopiesEveryField
// perturbs each one and checks the clone carries it. A new field fails
// the test until it is copied or its rule is named here.
var cloneRules = map[string]string{
	"Scheduler.eng":          "reset: the fork's engine",
	"Scheduler.topo":         "shared: the machine description",
	"Scheduler.cpus":         "deep: each CPU cloned",
	"Scheduler.hooks":        "reset: the caller wires the cloned machine in",
	"Scheduler.recs":         "reset: observers watch one world",
	"Scheduler.counts":       "reset: observers watch one world",
	"Scheduler.policy":       "reset: Clone panics, a policy makes decisions",
	"Scheduler.latProbe":     "reset: observers watch one world",
	"Scheduler.mx":           "reset: observers watch one world",
	"Scheduler.probe":        "reset: observers watch one world",
	"Scheduler.threads":      "deep: each Thread cloned",
	"Scheduler.groups":       "deep: each TaskGroup copied",
	"Scheduler.rootGroup":    "remapped: the clone's root group",
	"Scheduler.gsScratch":    "reset: balance-pass scratch",
	"Scheduler.gsGroups":     "reset: balance-pass scratch",
	"Scheduler.stealScratch": "reset: balance-pass scratch",
	"Scheduler.decay":        "shared: caches a pure function, and forks run on their parent's goroutine",
	"CPU.rq":                 "deep: the queue remapped in order to the clone's threads, the rest copied",
	"CPU.curr":               "remapped: the clone's thread",
	"CPU.tickTm":             "reset: re-registered on the fork's engine",
	"CPU.reschedTm":          "reset: re-registered on the fork's engine",
	"CPU.domains":            "shared: immutable after construction",
	"CPU.nextBalance":        "deep: slice copied",
	"CPU.balanceFailed":      "deep: slice copied",
	"Thread.group":           "remapped: the clone's group",
}

// settable returns an addressable, settable view of a (possibly
// unexported) field.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// perturb changes every scalar inside v and reports whether v is a
// value that can be perturbed (no pointers, slices, maps, funcs,
// interfaces or channels anywhere inside).
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "~")
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if !perturb(v.Index(i)) {
				return false
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !perturb(settable(v.Field(i))) {
				return false
			}
		}
	default:
		return false
	}
	return true
}

// cloneTarget picks, in a scheduler, the struct value of one cloned
// type whose fields the test perturbs.
type cloneTarget struct {
	name string
	pick func(s *Scheduler) reflect.Value
}

// cloneTargets covers Scheduler, CPU, Thread and TaskGroup. The CPU and
// the thread are chosen so that perturbing them cannot break Clone's
// own remapping: the CPU runs nothing, and the thread and group are on
// no runqueue and hold no threads, so their ids index nothing.
var cloneTargets = []cloneTarget{
	{"Scheduler", func(s *Scheduler) reflect.Value { return reflect.ValueOf(s).Elem() }},
	{"CPU", func(s *Scheduler) reflect.Value { return reflect.ValueOf(s.cpus[1]).Elem() }},
	{"Thread", func(s *Scheduler) reflect.Value { return reflect.ValueOf(s.threads[len(s.threads)-1]).Elem() }},
	{"TaskGroup", func(s *Scheduler) reflect.Value { return reflect.ValueOf(s.groups[len(s.groups)-1]).Elem() }},
}

// cloneWorld builds a started scheduler mid-run: one hog running on cpu
// 0, then a new empty group and a new root-group thread that was never
// started.
func cloneWorld() *testEnv {
	e := newEnv(topology.SMP(2), DefaultConfig())
	e.hog("hog", 0, ThreadOpts{Affinity: NewCPUSet(0)})
	e.eng.RunUntil(5 * sim.Millisecond)
	e.s.NewGroup("g")
	e.s.NewThread("new", ThreadOpts{})
	return e
}

// TestCloneCopiesEveryField: every field of Scheduler, CPU, Thread and
// TaskGroup either has a rule in cloneRules or is a value Clone copies —
// checked by perturbing the field in the source, one field at a time,
// and reading it back from the clone. Rules must name real fields, and
// "deep: slice copied" fields must arrive equal but unaliased.
func TestCloneCopiesEveryField(t *testing.T) {
	seen := map[string]bool{}
	for _, target := range cloneTargets {
		typ := target.pick(cloneWorld().s).Type()
		for i := 0; i < typ.NumField(); i++ {
			name := target.name + "." + typ.Field(i).Name
			seen[name] = true
			e := cloneWorld()
			src := settable(target.pick(e.s).Field(i))
			if rule, ok := cloneRules[name]; ok {
				if rule == "deep: slice copied" {
					if src.Len() == 0 || !perturb(src.Index(0)) {
						t.Fatalf("%s: cannot perturb its first element", name)
					}
					got := settable(target.pick(e.s.Clone(e.eng.Fork())).Field(i))
					if !reflect.DeepEqual(got.Interface(), src.Interface()) || got.Pointer() == src.Pointer() {
						t.Errorf("%s: clone holds %v at %#x, want a copy of %v at %#x",
							name, got.Interface(), got.Pointer(), src.Interface(), src.Pointer())
					}
				}
				continue
			}
			if !perturb(src) {
				t.Errorf("%s (%s) has no clone rule: copy it in Clone, or name its rule in cloneRules", name, src.Type())
				continue
			}
			got := settable(target.pick(e.s.Clone(e.eng.Fork())).Field(i))
			if !reflect.DeepEqual(got.Interface(), src.Interface()) {
				t.Errorf("%s: clone holds %v, source %v — Clone does not copy it", name, got.Interface(), src.Interface())
			}
		}
	}
	for name := range cloneRules {
		if !seen[name] {
			t.Errorf("cloneRules names %s, which is not a field", name)
		}
	}
}

// TestCloneStartsWithoutObservers: a clone carries none of the source's
// recorders, metrics, latency probe or divergence probe, and Clone
// refuses only an attached placement policy.
func TestCloneStartsWithoutObservers(t *testing.T) {
	e := cloneWorld()
	e.s.SetRecorder(trace.NewRecorder(1))
	e.s.SetRecorder(trace.NewDecisionCounter(1))
	e.s.mx = &Metrics{}
	e.s.latProbe = nopProbe{}
	e.s.probe = &DivergenceProbe{}
	c := e.s.Clone(e.eng.Fork())
	if c.recs != nil || c.counts != nil || c.mx != nil || c.latProbe != nil || c.probe != nil {
		t.Fatalf("clone carries observers: recs=%v counts=%v mx=%v latProbe=%v probe=%v",
			c.recs, c.counts, c.mx, c.latProbe, c.probe)
	}
	e.s.policy = nopPolicy{}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "placement policy") {
			t.Fatalf("Clone with a policy: recover() = %v, want a placement-policy panic", r)
		}
	}()
	e.s.Clone(e.eng.Fork())
}

type nopProbe struct{}

func (nopProbe) WaitEnd(sim.Time, *Thread, topology.CoreID, sim.Time, bool)  {}
func (nopProbe) WakeupPlaced(sim.Time, *Thread, topology.CoreID, bool, bool) {}

type nopPolicy struct{}

func (nopPolicy) PlaceWakeup(*Thread, *Thread, topology.CoreID, CPUSet) (topology.CoreID, bool) {
	return 0, false
}
