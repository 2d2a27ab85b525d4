package machine

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// forkRules names every field of the structs Fork copies that it does
// not copy by value, with the rule it follows instead:
//
//   - shared: the fork points at the same immutable value;
//   - remapped: the fork points at its own copy of the referent;
//   - deep: the fork gets its own copy of the contents ("deep: copied"
//     ones arrive equal to the source);
//   - reset: the fork starts without it, or rebinds it to itself;
//   - panics: Fork refuses a world where it is set.
//
// Every other field must be a value — a scalar, a string, or an array
// or struct of them — that Fork copies; TestForkCopiesEveryField
// perturbs each one and checks the fork carries it. A new field fails
// the test until it is copied or its rule is named here.
var forkRules = map[string]string{
	"Machine.Eng":              "deep: the engine's fork (sim.Engine.Fork)",
	"Machine.Topo":             "shared: the machine description",
	"Machine.Sched":            "deep: the scheduler's clone (sched.Scheduler.Clone)",
	"Machine.procs":            "deep: each Proc copied",
	"Machine.threads":          "deep: the copied threads, each at its tid",
	"Machine.locks":            "deep: each SpinLock copied",
	"Machine.barriers":         "deep: each SpinBarrier copied",
	"Machine.waitqs":           "deep: each WaitQueue copied",
	"Machine.workqs":           "deep: each WorkQueue copied",
	"Machine.flags":            "deep: each SpinFlag copied",
	"Proc.m":                   "remapped: the fork",
	"Proc.group":               "remapped: the fork's task group",
	"Proc.threads":             "deep: each MThread copied",
	"Proc.onDone":              "panics: the hook closes over the source world",
	"MThread.T":                "remapped: the fork's scheduler thread",
	"MThread.proc":             "remapped: the fork's Proc",
	"MThread.prog":             "shared: immutable once built",
	"MThread.script":           "shared: immutable once spawned",
	"MThread.loops":            "deep: copied",
	"MThread.computeTm":        "reset: re-registered on the fork's engine",
	"MThread.poppedFrom":       "remapped: the fork's WorkQueue",
	"MThread.poppedTask":       "deep: copied whole, checked as the popped Task",
	"MThread.resumeCb":         "reset: rebound to the fork's thread",
	"MThread.deferCb":          "reset: rebound to the fork's thread",
	"MThread.sleepCb":          "reset: rebound to the fork's thread",
	"MThread.btimeoutCb":       "reset: rebound to the fork's thread",
	"MThread.resumeH":          "reset: re-registered on the fork's engine",
	"MThread.deferH":           "reset: re-registered on the fork's engine",
	"MThread.sleepH":           "reset: re-registered on the fork's engine",
	"MThread.btimeoutH":        "reset: re-registered on the fork's engine",
	"MThread.spinLock":         "remapped: the fork's SpinLock",
	"MThread.spinBarrier":      "remapped: the fork's SpinBarrier",
	"MThread.spinFlag":         "remapped: the fork's SpinFlag",
	"MThread.blockedOnBarrier": "remapped: the fork's SpinBarrier",
	"SpinLock.holder":          "remapped: the fork's thread",
	"SpinLock.spinners":        "remapped: the fork's threads, in order",
	"SpinBarrier.arrived":      "remapped: the fork's threads, in order",
	"SpinFlag.spinners":        "remapped: the fork's threads, in order",
	"WaitQueue.waiters":        "remapped: the fork's threads, in order",
	"WorkQueue.tasks":          "deep: copied from the pop index on",
	"WorkQueue.head":           "reset: the fork's pending tasks start at index 0",
	"WorkQueue.popWaiters":     "remapped: the fork's threads, in order",
	"WorkQueue.drainers":       "remapped: the fork's threads, in order",
	"Task.OnDone":              "panics: the hook closes over the source world",
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

// forkTarget picks, in a machine, the struct value of one copied type
// whose fields the test perturbs.
type forkTarget struct {
	name string
	pick func(m *Machine) reflect.Value
}

// last returns the last element of a machine's list as a struct value.
func last[T any](xs []*T) reflect.Value { return reflect.ValueOf(xs[len(xs)-1]).Elem() }

// forkTargets covers Machine, Proc, MThread, the five sync primitives
// and Task, both as a queued task and as a thread's popped one. Every
// target but the Machine is one forkWorld adds after the run: no thread
// waits on those primitives and the target thread is never started, so
// perturbing their ids cannot break Fork's own remapping. The target
// queue has popped nothing, so the fork copies all of its tasks; a
// queued task is picked at the pop index, which the fork rebases to 0.
var forkTargets = []forkTarget{
	{"Machine", func(m *Machine) reflect.Value { return reflect.ValueOf(m).Elem() }},
	{"Proc", func(m *Machine) reflect.Value { return last(m.procs) }},
	{"MThread", func(m *Machine) reflect.Value { return last(m.procs[len(m.procs)-1].threads) }},
	{"SpinLock", func(m *Machine) reflect.Value { return last(m.locks) }},
	{"SpinBarrier", func(m *Machine) reflect.Value { return last(m.barriers) }},
	{"SpinFlag", func(m *Machine) reflect.Value { return last(m.flags) }},
	{"WaitQueue", func(m *Machine) reflect.Value { return last(m.waitqs) }},
	{"WorkQueue", func(m *Machine) reflect.Value { return last(m.workqs) }},
	{"Task", func(m *Machine) reflect.Value {
		q := m.workqs[len(m.workqs)-1]
		return reflect.ValueOf(&q.tasks[q.head]).Elem()
	}},
	{"Task", func(m *Machine) reflect.Value {
		p := m.procs[len(m.procs)-1]
		return reflect.ValueOf(&p.threads[len(p.threads)-1].poppedTask).Elem()
	}},
}

// forkWorld builds a machine mid-run, with two threads of one process
// taking turns on a lock, meeting at an adaptive barrier and draining a
// work queue. It then adds one of each primitive, a work queue holding
// one task, and a process with one thread that was never started but
// has a loop count and a popped task, so that every field has a value
// to copy.
func forkWorld() *Machine {
	m := New(topology.SMP(2), sched.DefaultConfig(), 3)
	lock := m.NewSpinLock()
	bar := m.NewAdaptiveBarrier(2, sim.Millisecond)
	q := m.NewWorkQueue()
	p := m.NewProc("work", ProcOpts{})
	prog := NewProgram().Repeat(20, func(b *Builder) {
		b.Push(q, 2, 100*sim.Microsecond).Lock(lock).Compute(50 * sim.Microsecond).Unlock(lock).
			Barrier(bar).Pop(q)
	}).Build()
	p.Spawn(prog, SpawnOpts{})
	p.Spawn(prog, SpawnOpts{})
	m.Run(2 * sim.Millisecond)

	m.NewSpinLock()
	m.NewAdaptiveBarrier(3, sim.Millisecond)
	m.NewSpinFlag()
	m.NewWaitQueue()
	m.NewWorkQueue().push(Task{Dur: sim.Millisecond, Fanout: 2, Depth: 1})
	t := m.NewProc("target", ProcOpts{Cap: 1.5}).newThread(prog, SpawnOpts{Script: []sim.Time{sim.Millisecond}})
	t.loops = []int32{0, 3}
	t.poppedTask = Task{Dur: sim.Millisecond, Fanout: 2, Depth: 1}
	return m
}

// TestForkCopiesEveryField: every field of the structs Fork copies
// either has a rule in forkRules or is a value Fork copies, checked by
// perturbing the field in the source, one field at a time, and reading
// it back from the fork. "deep: copied" fields must arrive equal but
// unaliased, setting a "panics" field must make Fork panic, and rules
// must name real fields.
func TestForkCopiesEveryField(t *testing.T) {
	seen := map[string]bool{}
	for _, target := range forkTargets {
		typ := target.pick(forkWorld()).Type()
		for i := 0; i < typ.NumField(); i++ {
			name := target.name + "." + typ.Field(i).Name
			seen[name] = true
			m := forkWorld()
			src := settable(target.pick(m).Field(i))
			if rule, ok := forkRules[name]; ok {
				if strings.HasPrefix(rule, "deep: copied") {
					got := settable(target.pick(m.Fork()).Field(i))
					if src.IsZero() || !reflect.DeepEqual(got.Interface(), src.Interface()) ||
						(src.Kind() != reflect.Struct && got.Pointer() == src.Pointer()) {
						t.Errorf("%s: fork holds %v, want an unaliased copy of %v", name, got.Interface(), src.Interface())
					}
				}
				if strings.HasPrefix(rule, "panics:") {
					src.Set(reflect.MakeFunc(src.Type(), func([]reflect.Value) []reflect.Value { return nil }))
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("%s: Fork with it set did not panic", name)
							}
						}()
						m.Fork()
					}()
				}
				continue
			}
			if !perturb(src) {
				t.Errorf("%s (%s) has no fork rule: copy it in Fork, or name its rule in forkRules", name, src.Type())
				continue
			}
			got := settable(target.pick(m.Fork()).Field(i))
			if !reflect.DeepEqual(got.Interface(), src.Interface()) {
				t.Errorf("%s: fork holds %v, source %v — Fork does not copy it", name, got.Interface(), src.Interface())
			}
		}
	}
	for name := range forkRules {
		if !seen[name] {
			t.Errorf("forkRules names %s, which is not a field", name)
		}
	}
}
