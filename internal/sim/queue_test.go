package sim

import (
	"testing"
)

// This file checks the event queue, heap and same-instant lane together,
// against a reference model: a flat list of queued entries in which
// every pop takes the minimum (when, seq). Random operations — At,
// AtCall, zero-delay AfterCall, Timer.Reset and ResetAfter, Timer.Stop,
// Cancel, Step, RunUntil, NextEventAt — run from outside and from
// inside callbacks, and a world is forked mid-run. Every decision is
// drawn from the engine's own RNG, so a fork makes the same ones.

// refEntry is one queued event of the reference model, or one fired
// event. id names a one-shot event (id >= 0) or timer i (id -1-i).
type refEntry struct {
	when     Time
	seq      uint64
	id       int
	canceled bool
}

func (a refEntry) less(b refEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

type queueWorld struct {
	t       *testing.T
	eng     *Engine
	cb      func(uint64)
	timers  []*Timer
	handles []Handle // by one-shot id; stale once fired
	ref     []refEntry
	high    int // the reference's pending high-water mark
	fired   []refEntry
}

func newQueueWorld(t *testing.T, eng *Engine, timers int) *queueWorld {
	w := &queueWorld{t: t, eng: eng}
	w.cb = func(id uint64) { w.onFire(int(id)) }
	for i := 0; i < timers; i++ {
		id := -1 - i
		w.timers = append(w.timers, eng.NewTimer(func() { w.onFire(id) }))
	}
	return w
}

// refFind returns the index of id's queued entry, or -1.
func (w *queueWorld) refFind(id int) int {
	for i, e := range w.ref {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (w *queueWorld) refAdd(e refEntry) {
	w.ref = append(w.ref, e)
	w.high = max(w.high, len(w.ref))
}

// refPopMin removes and returns the reference's minimum entry.
func (w *queueWorld) refPopMin() refEntry {
	m := 0
	for i, e := range w.ref {
		if e.less(w.ref[m]) {
			m = i
		}
	}
	e := w.ref[m]
	w.ref = append(w.ref[:m], w.ref[m+1:]...)
	return e
}

// refTrim drops cancelled entries from the reference's head, as the
// engine recycles them when they reach the head.
func (w *queueWorld) refTrim() {
	for len(w.ref) > 0 {
		e := w.refPopMin()
		if !e.canceled {
			w.ref = append(w.ref, e)
			return
		}
	}
}

func (w *queueWorld) checkCounts(where string) {
	w.t.Helper()
	if got, want := w.eng.Pending(), len(w.ref); got != want {
		w.t.Fatalf("%s at %v: Pending() = %d, reference %d", where, w.eng.Now(), got, want)
	}
	if got, want := w.eng.PendingHighWater(), w.high; got != want {
		w.t.Fatalf("%s at %v: PendingHighWater() = %d, reference %d", where, w.eng.Now(), got, want)
	}
}

// onFire checks that the engine fired the reference's first live entry,
// after strictly every event fired before, then runs up to two more
// operations from inside the callback.
func (w *queueWorld) onFire(id int) {
	w.t.Helper()
	var want refEntry
	for want = w.refPopMin(); want.canceled; want = w.refPopMin() {
	}
	if want.id != id || want.when != w.eng.Now() || (id < 0 && want.seq != w.timers[-1-id].ev.seq) {
		w.t.Fatalf("fired event %d at %v, reference expects event %d at %v (seq %d)", id, w.eng.Now(), want.id, want.when, want.seq)
	}
	if n := len(w.fired); n > 0 && !w.fired[n-1].less(want) {
		w.t.Fatalf("event (%v, %d) fired after (%v, %d)", want.when, want.seq, w.fired[n-1].when, w.fired[n-1].seq)
	}
	w.fired = append(w.fired, want)
	if len(w.fired) > 200_000 {
		w.t.Fatal("the random world does not settle")
	}
	w.checkCounts("callback")
	for k := w.eng.Rand().Intn(3); k > 0; k-- {
		w.op()
		w.checkCounts("callback op")
	}
}

// op makes one random change to the queue, mirrored in the reference.
func (w *queueWorld) op() {
	r := w.eng.Rand()
	delay := func() Time {
		if r.Intn(2) == 0 {
			return 0
		}
		return Time(r.Intn(40))
	}
	oneShot := func(h Handle) {
		seq, _ := h.Seq()
		w.handles = append(w.handles, h)
		w.refAdd(refEntry{when: h.When(), seq: seq, id: len(w.handles) - 1})
	}
	resetTimer := func(i int) {
		tm := w.timers[i]
		e := refEntry{when: tm.ev.when, seq: tm.ev.seq, id: -1 - i}
		if j := w.refFind(e.id); j >= 0 {
			w.ref[j] = e // a queued timer moves in place
		} else {
			w.refAdd(e)
		}
	}
	cancel := func(id int) {
		if j := w.refFind(id); j >= 0 {
			w.ref[j].canceled = true
		}
	}
	now := w.eng.Now()
	switch r.Intn(7) {
	case 0:
		oneShot(w.eng.AtCall(now+delay(), w.cb, uint64(len(w.handles))))
	case 1:
		id := len(w.handles)
		oneShot(w.eng.At(now+delay(), func() { w.onFire(id) }))
	case 2:
		oneShot(w.eng.AfterCall(0, w.cb, uint64(len(w.handles))))
	case 3:
		i := r.Intn(len(w.timers))
		w.timers[i].Reset(now + delay())
		resetTimer(i)
	case 4:
		i := r.Intn(len(w.timers))
		w.timers[i].ResetAfter(0)
		resetTimer(i)
	case 5:
		i := r.Intn(len(w.timers))
		w.timers[i].Stop()
		cancel(-1 - i)
	case 6:
		if len(w.handles) > 0 {
			id := r.Intn(len(w.handles))
			w.eng.Cancel(w.handles[id]) // a no-op once fired
			cancel(id)
		}
	}
}

// drive runs main-loop iterations [from, to).
func (w *queueWorld) drive(from, to int) {
	w.t.Helper()
	for it := from; it < to; it++ {
		r := w.eng.Rand()
		switch r.Intn(5) {
		case 0, 1:
			w.op()
		case 2:
			if !w.eng.Step() {
				w.refTrim()
				if len(w.ref) != 0 {
					w.t.Fatalf("Step found no live event, the reference holds %d", len(w.ref))
				}
			}
		case 3:
			w.eng.RunUntil(w.eng.Now() + Time(r.Intn(30)))
			w.refTrim()
		case 4:
			when, ok := w.eng.NextEventAt()
			w.refTrim()
			if ok != (len(w.ref) > 0) || ok && when != w.refHead().when {
				w.t.Fatalf("NextEventAt() = %v, %v; reference holds %d entries", when, ok, len(w.ref))
			}
		}
		w.checkCounts("main loop")
	}
}

// refHead returns the reference's minimum entry without removing it.
func (w *queueWorld) refHead() refEntry {
	e := w.refPopMin()
	w.ref = append(w.ref, e)
	return e
}

// fork forks the engine and re-registers every live event on the fork
// at its (time, sequence) position, as machine.Fork does; cancelled
// events and stopped timers stay behind.
func (w *queueWorld) fork() *queueWorld {
	f := newQueueWorld(w.t, w.eng.Fork(), len(w.timers))
	for i, tm := range w.timers {
		f.timers[i].RestoreFrom(tm)
	}
	f.handles = make([]Handle, len(w.handles))
	for id, h := range w.handles {
		if seq, ok := h.Seq(); ok {
			f.handles[id] = f.eng.RestoreAtCall(h.When(), seq, f.cb, uint64(id))
		}
	}
	for _, e := range w.ref {
		if !e.canceled {
			f.ref = append(f.ref, e)
		}
	}
	f.high = w.high
	f.checkCounts("fork")
	return f
}

// TestQueueMatchesReference: on random operation sequences, live events
// fire in strictly increasing (when, seq) order and exactly when the
// reference model pops them, Pending and PendingHighWater equal the
// reference's counts after every operation, and a world forked mid-run
// fires the same events as the original from the fork on.
func TestQueueMatchesReference(t *testing.T) {
	const iters = 600
	for seed := int64(1); seed <= 40; seed++ {
		w := newQueueWorld(t, New(seed), 4)
		forkAt := 50 + int(w.eng.Rand().Int63n(iters-100))
		w.drive(0, forkAt)
		f := w.fork()
		before := len(w.fired)
		w.drive(forkAt, iters)
		f.drive(forkAt, iters)
		after := w.fired[before:]
		if len(after) != len(f.fired) {
			t.Fatalf("seed %d: %d events fired after the fork, %d in the fork", seed, len(after), len(f.fired))
		}
		for i := range after {
			if after[i] != f.fired[i] {
				t.Fatalf("seed %d: event %d after the fork is %+v, in the fork %+v", seed, i, after[i], f.fired[i])
			}
		}
		if len(after) == 0 {
			t.Fatalf("seed %d: nothing fired after the fork", seed)
		}
	}
}
