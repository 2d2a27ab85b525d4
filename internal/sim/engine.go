// Package sim provides a deterministic discrete-event simulation engine.
//
// All scheduler and workload activity in this repository runs on virtual
// time: events are ordered by (time, sequence number) so that two runs with
// the same seed produce byte-identical traces. The engine is single-threaded
// by design — determinism is a core requirement of the reproduction (the
// paper's bugs depend on precise orderings of asynchronous events, and we
// need to replay them exactly in tests).
//
// The engine is also the hot path of every campaign, bisect lattice and
// tournament, so its steady state is allocation-free: one-shot events
// come from a free-list pool (handles carry a generation counter, so a
// stale handle can never cancel a recycled event), cancellation is lazy
// (O(1), dead events are skipped when popped), and periodic activity uses
// Timer, which reschedules one persistent event in place instead of
// freeing and reallocating an event every cycle.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds.
type Time int64

// Duration constants in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time with an adaptive unit, e.g. "12.5ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	}
}

// Seconds converts a Time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is a scheduled callback. One-shot events are pool-managed by the
// engine: after firing (or after a cancelled event is popped) the Event is
// recycled, so callers never hold a bare *Event — they hold a Handle,
// whose generation counter detects recycling.
type Event struct {
	when     Time
	seq      uint64
	gen      uint64
	index    int32 // heap index, -1 when not queued
	canceled bool
	pooled   bool // recycled through the engine free list after popping

	// Exactly one of the dispatch targets is set while queued:
	fn    func()       // generic closure
	cb    func(uint64) // closure-free path: pre-bound callback + argument
	arg   uint64
	timer *Timer // persistent periodic event owned by a Timer
}

// Handle names a scheduled event for cancellation. The zero Handle is
// inert: cancelling it is a no-op, so callers can use it as "no event".
// A Handle taken before an event fired (or was recycled) goes stale
// automatically — the generation check makes cancelling it a no-op too.
type Handle struct {
	ev  *Event
	gen uint64
}

// When returns the virtual time at which the event will fire, or -1 when
// the handle is zero or stale (the event fired, was cancelled and
// collected, or was recycled).
func (h Handle) When() Time {
	if h.ev == nil || h.ev.gen != h.gen {
		return -1
	}
	return h.ev.when
}

// Active reports whether the handle still names a pending event.
func (h Handle) Active() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled && h.ev.index >= 0
}

// Seq returns the pending event's sequence number, or false when the
// handle is inert, stale or cancelled. Together with When it names the
// event's exact position in the queue's (time, sequence) total order —
// what Engine.Fork callers feed back into RestoreAt/RestoreAtCall.
func (h Handle) Seq() (uint64, bool) {
	if !h.Active() {
		return 0, false
	}
	return h.ev.seq, true
}

// Engine is a discrete-event simulator clock and event queue.
type Engine struct {
	now       Time
	seq       uint64
	heap      []*Event
	free      []*Event // recycled one-shot events
	rng       *RNG
	processed uint64
	maxHeap   int
}

// New returns an Engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *RNG { return e.rng }

// Processed reports the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports the number of events currently queued (including
// cancelled events that have not yet been popped).
func (e *Engine) Pending() int { return len(e.heap) }

// PendingHighWater reports the largest pending-event count ever reached —
// the event heap's high-water mark, a health signal for the
// observability layer (a runaway heap means a workload is scheduling
// faster than it retires).
func (e *Engine) PendingHighWater() int { return e.maxHeap }

// --- event heap ---------------------------------------------------------
//
// A hand-rolled 4-ary min-heap over (when, seq). container/heap would
// route every comparison through an interface and box pops into `any`;
// the inlined version keeps Step in the tens of nanoseconds, and the
// wider fan-out halves the sift depth (discrete-event queues are
// pop-dominated). Heap shape never affects event order: (when, seq) is a
// strict total order, so the minimum popped each step is unique.

func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *Event) {
	ev.index = int32(len(e.heap))
	e.heap = append(e.heap, ev)
	if len(e.heap) > e.maxHeap {
		e.maxHeap = len(e.heap)
	}
	e.siftUp(int(ev.index))
}

// heapPop removes and returns the earliest event.
func (e *Engine) heapPop() *Event {
	h := e.heap
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	ev.index = -1
	return ev
}

// heapFix restores order after ev's (when, seq) changed in place — the
// Timer reschedule path.
func (e *Engine) heapFix(ev *Event) {
	i := int(ev.index)
	if !e.siftDown(i) {
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = int32(i)
		i = parent
	}
	h[i] = ev
	ev.index = int32(i)
}

func (e *Engine) siftDown(i int) bool {
	h := e.heap
	n := len(h)
	ev := h[i]
	start := i
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if eventLess(h[j], h[min]) {
				min = j
			}
		}
		if !eventLess(h[min], ev) {
			break
		}
		h[i] = h[min]
		h[i].index = int32(i)
		i = min
	}
	h[i] = ev
	ev.index = int32(i)
	return i > start
}

// --- event pool ---------------------------------------------------------

// get returns a recycled one-shot event or allocates a fresh one.
func (e *Engine) get() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{pooled: true, index: -1}
}

// release recycles a popped one-shot event. Bumping the generation makes
// every outstanding Handle to it stale before it can be reused.
func (e *Engine) release(ev *Event) {
	if !ev.pooled {
		return // Timer-owned events live as long as their Timer
	}
	ev.gen++
	ev.fn = nil
	ev.cb = nil
	ev.arg = 0
	ev.canceled = false
	e.free = append(e.free, ev)
}

// --- scheduling ---------------------------------------------------------

func (e *Engine) checkFuture(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
}

func (e *Engine) schedule(ev *Event, t Time) Handle {
	ev.when = t
	ev.seq = e.seq
	e.seq++
	e.heapPush(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it would silently reorder causality and mask bugs.
func (e *Engine) At(t Time, fn func()) Handle {
	e.checkFuture(t)
	ev := e.get()
	ev.fn = fn
	return e.schedule(ev, t)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AtCall schedules cb(arg) at virtual time t. It is the closure-free fast
// path for hot callers: bind cb once (e.g. per thread or per core) and
// pass the varying state through arg, so scheduling allocates nothing
// beyond the pooled event.
func (e *Engine) AtCall(t Time, cb func(uint64), arg uint64) Handle {
	e.checkFuture(t)
	ev := e.get()
	ev.cb = cb
	ev.arg = arg
	return e.schedule(ev, t)
}

// AfterCall schedules cb(arg) d nanoseconds from now.
func (e *Engine) AfterCall(d Time, cb func(uint64), arg uint64) Handle {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now+d, cb, arg)
}

// Cancel prevents the handled event from firing. Cancellation is lazy:
// the event stays queued (Pending still counts it) and is discarded,
// uncounted, when its time comes. Safe on the zero Handle and on handles
// whose event already fired, was cancelled, or was recycled.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.canceled || ev.index < 0 {
		return
	}
	ev.canceled = true
	ev.fn = nil
	ev.cb = nil
}

// Step executes the earliest pending event, skipping (and recycling)
// cancelled ones. It reports false when no live event remains.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		ev := e.heapPop()
		if ev.canceled {
			e.release(ev)
			continue
		}
		if ev.when < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = ev.when
		e.processed++
		e.dispatch(ev)
		return true
	}
	return false
}

// dispatch runs ev's callback. One-shot events are released first, so the
// callback can schedule new work straight into the recycled slot.
func (e *Engine) dispatch(ev *Event) {
	switch {
	case ev.timer != nil:
		ev.timer.fire()
	case ev.cb != nil:
		cb, arg := ev.cb, ev.arg
		e.release(ev)
		cb(arg)
	default:
		fn := ev.fn
		e.release(ev)
		fn()
	}
}

// NextEventAt reports the time of the earliest live pending event,
// recycling cancelled events found at the heap head on the way. It
// returns false when no live event remains. Event-granular drive loops
// (machine.RunUntilDone, the campaign drive loop) use it to decide
// whether the next Step would stay within a deadline — stepping exactly
// to a completion instant instead of overshooting by a time chunk.
func (e *Engine) NextEventAt() (Time, bool) {
	for len(e.heap) > 0 {
		next := e.heap[0]
		if next.canceled {
			e.release(e.heapPop())
			continue
		}
		return next.when, true
	}
	return 0, false
}

// RunUntil executes events until the queue is exhausted or the next live
// event is later than t, then advances the clock to exactly t. Cancelled
// events encountered at the head are recycled without a full Step.
func (e *Engine) RunUntil(t Time) {
	for len(e.heap) > 0 {
		next := e.heap[0]
		if next.canceled {
			e.release(e.heapPop())
			continue
		}
		if next.when > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Run executes events until none remain. Use RunUntil for workloads that
// self-perpetuate (e.g. periodic ticks).
func (e *Engine) Run() {
	for e.Step() {
	}
}

// --- timers -------------------------------------------------------------

// Timer is a persistent event with a fixed callback that can be re-armed
// in place: Reset moves the one backing Event to a new time (with a fresh
// sequence number, so ordering among same-time events matches a freshly
// scheduled one) instead of allocating. It is the engine's tool for
// periodic activity — clock ticks, balance passes, arrival processes —
// which would otherwise free and reallocate an event every cycle.
//
// A Timer tracks at most one pending fire. Like all engine state it is
// single-threaded: arm and stop it only from inside the simulation.
type Timer struct {
	eng *Engine
	ev  Event
	fn  func()
}

// NewTimer returns an unarmed timer that runs fn at each fire.
func (e *Engine) NewTimer(fn func()) *Timer {
	tm := &Timer{eng: e, fn: fn}
	tm.ev.index = -1
	tm.ev.timer = tm
	return tm
}

// Reset (re)arms the timer to fire at t, whether it is unarmed, pending,
// or stopped-but-not-yet-collected. Like At, t must not be in the past.
func (tm *Timer) Reset(t Time) {
	e := tm.eng
	e.checkFuture(t)
	ev := &tm.ev
	ev.canceled = false
	if ev.index >= 0 {
		// Still queued (pending, or lazily stopped): move it in place.
		ev.when = t
		ev.seq = e.seq
		e.seq++
		e.heapFix(ev)
		return
	}
	e.schedule(ev, t)
}

// ResetAfter (re)arms the timer to fire d nanoseconds from now.
func (tm *Timer) ResetAfter(d Time) {
	if d < 0 {
		d = 0
	}
	tm.Reset(tm.eng.now + d)
}

// Stop cancels the pending fire, if any. Lazy like Cancel: the backing
// event stays queued until popped, but a subsequent Reset revives it in
// place.
func (tm *Timer) Stop() {
	tm.ev.canceled = true
}

// Pending reports whether a fire is scheduled.
func (tm *Timer) Pending() bool { return tm.ev.index >= 0 && !tm.ev.canceled }

// When returns the pending fire time, or -1 when the timer is not pending.
func (tm *Timer) When() Time {
	if !tm.Pending() {
		return -1
	}
	return tm.ev.when
}

// fire runs the callback. The event was already popped (index -1), so the
// callback may Reset the timer freely.
func (tm *Timer) fire() {
	tm.fn()
}
