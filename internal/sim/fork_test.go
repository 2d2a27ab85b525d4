package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestRestoreRejectsPastAndUnissued: re-registration validates its
// position — an event in the forked engine's past, or a sequence
// number the source never issued, is a caller bug.
func TestRestoreRejectsPastAndUnissued(t *testing.T) {
	eng := New(1)
	eng.After(10, func() {})
	eng.RunUntil(50)

	mustPanic(t, "past", func() { eng.RestoreAtCall(40, 0, func(uint64) {}, 0) })
	mustPanic(t, "unissued seq", func() { eng.RestoreAtCall(60, 99, func(uint64) {}, 0) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

// replayWorld is a deterministic self-perpetuating event tapestry: each
// timer callback records (id, now), then re-arms itself by an
// engine-RNG-drawn delay. Histories and engine scalars must match
// between any two worlds that share a prefix.
type replayWorld struct {
	eng    *Engine
	timers []*Timer
	hist   []string
}

func newReplayWorld(eng *Engine, n int) *replayWorld {
	w := &replayWorld{eng: eng}
	for i := 0; i < n; i++ {
		id := i
		tm := eng.NewTimer(nil)
		tm.fn = func() {
			w.hist = append(w.hist, fmt.Sprintf("%d@%d", id, eng.Now()))
			tm.ResetAfter(Time(1 + eng.Rand().Int63n(997)))
		}
		w.timers = append(w.timers, tm)
	}
	return w
}

// TestForkReplaysByteIdentical: fork a mid-run engine (including a
// stopped-but-queued timer), re-register the live events, and drive both
// worlds to the same horizon — event histories, processed counts and RNG
// positions must agree exactly.
func TestForkReplaysByteIdentical(t *testing.T) {
	const (
		forkAt  = Time(10_000)
		horizon = Time(50_000)
	)
	a := newReplayWorld(New(7), 4)
	for i, tm := range a.timers {
		tm.ResetAfter(Time(1 + i))
	}
	a.eng.RunUntil(forkAt)

	// The fork-edge under test: a lazily stopped timer whose dead event
	// is still in A's queue. It must restore to unarmed on B, and a
	// later Reset must behave identically in both worlds.
	a.timers[0].Stop()

	engB := a.eng.Fork()
	b := newReplayWorld(engB, len(a.timers))
	for i, src := range a.timers {
		b.timers[i].RestoreFrom(src)
	}
	if b.timers[0].Pending() {
		t.Fatal("stopped-but-queued timer restored as armed")
	}

	// Reset the stopped timer at the same instant in both worlds: the
	// dead queued event in A must not disturb the revived one.
	a.timers[0].ResetAfter(50)
	b.timers[0].ResetAfter(50)

	a.eng.RunUntil(horizon)
	engB.RunUntil(horizon)

	cut := 0
	for _, h := range a.hist {
		var id int
		var at Time
		fmt.Sscanf(h, "%d@%d", &id, &at)
		if at < forkAt {
			cut++
		}
	}
	histA := a.hist[cut:]
	if len(histA) == 0 {
		t.Fatal("no post-fork events to compare")
	}
	if len(histA) != len(b.hist) {
		t.Fatalf("post-fork event counts differ: %d vs %d", len(histA), len(b.hist))
	}
	for i := range histA {
		if histA[i] != b.hist[i] {
			t.Fatalf("histories diverge at %d: %q vs %q", i, histA[i], b.hist[i])
		}
	}
	if a.eng.Processed() != engB.Processed() {
		t.Errorf("processed counts differ: %d vs %d", a.eng.Processed(), engB.Processed())
	}
	if ra, rb := a.eng.Rand().Int63(), engB.Rand().Int63(); ra != rb {
		t.Errorf("RNG positions differ: %d vs %d", ra, rb)
	}
}

// forkRules names every Engine field that Fork does not copy by value,
// with the rule it follows instead:
//
//   - deep: copied, the fork gets its own equal copy of the referent;
//   - reset: the fork starts without it.
//
// Every other field must be a scalar that Fork copies;
// TestForkCopiesEveryField perturbs each one and checks the fork carries
// it. A new field fails the test until it is copied or its rule is
// named here.
var forkRules = map[string]string{
	"heap":     "reset: each owner re-registers its live events on the fork",
	"lane":     "reset: each owner re-registers its live events on the fork's heap",
	"laneHead": "reset: the fork's lane starts empty",
	"laneLen":  "reset: the fork's lane starts empty",
	"free":     "reset: the fork recycles its own events",
	"rng":      "deep: copied, the fork draws from its own RNG at the same position",
}

// TestForkCopiesEveryField: every Engine field either has a rule in
// forkRules or is a scalar Fork copies, checked by perturbing the field
// in a mid-run source, one field at a time, and reading it back from the
// fork. "deep: copied" fields must arrive equal but unaliased, and rules
// must name real fields.
func TestForkCopiesEveryField(t *testing.T) {
	world := func() *Engine {
		e := New(5)
		for i := 1; i <= 4; i++ {
			e.After(Time(10*i), func() { e.Rand().Int63() })
		}
		e.RunUntil(25)
		return e
	}
	field := func(e *Engine, i int) reflect.Value {
		v := reflect.ValueOf(e).Elem().Field(i)
		return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	typ := reflect.TypeOf(Engine{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		e := world()
		src := field(e, i)
		if rule, ok := forkRules[name]; ok {
			if strings.HasPrefix(rule, "deep: copied") {
				got := field(e.Fork(), i)
				if src.IsZero() || !reflect.DeepEqual(got.Interface(), src.Interface()) || got.Pointer() == src.Pointer() {
					t.Errorf("%s: fork holds %v at %#x, want a copy of %v at %#x",
						name, got.Interface(), got.Pointer(), src.Interface(), src.Pointer())
				}
			}
			continue
		}
		switch src.Kind() {
		case reflect.Bool:
			src.SetBool(!src.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			src.SetInt(src.Int() + 7)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			src.SetUint(src.Uint() + 7)
		default:
			t.Errorf("%s (%s) has no fork rule: copy it in Fork, or name its rule in forkRules", name, src.Type())
			continue
		}
		if got := field(e.Fork(), i); !reflect.DeepEqual(got.Interface(), src.Interface()) {
			t.Errorf("%s: fork holds %v, source %v — Fork does not copy it", name, got.Interface(), src.Interface())
		}
	}
	for name := range forkRules {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("forkRules names %s, which is not a field", name)
		}
	}
}
