package sim

import "fmt"

// This file is the engine half of the world fork that explain's
// counterfactual replays use: a world is forked mid-run at a detection
// instant and the fork replays the episode under another fix set.
//
// The engine's own state is four scalars plus the RNG word; the event
// queue is the hard part, because every queued callback closes over (or
// is bound to) its owner — a thread, a CPU — and a fork clones those
// owners. The engine therefore does not try to copy the queue: Fork
// returns an engine with the same clock, sequence counter and RNG but an
// empty queue, and each cloned owner re-registers its own live events at
// their original (time, sequence) positions via RestoreAtCall and
// Timer.RestoreFrom. Sequence numbers are preserved exactly, so the
// restored queue pops in the source engine's order and the fork replays
// byte-identically.

// Fork returns a new engine with this engine's clock, sequence counter,
// processed-event count and RNG position — and an empty event queue.
// The caller walks its live events and re-registers each on the fork,
// re-binding callbacks to cloned owners; with original sequence numbers
// preserved, the fork's queue pops in exactly the source order.
func (e *Engine) Fork() *Engine {
	rng := *e.rng
	return &Engine{now: e.now, seq: e.seq, processed: e.processed, maxHeap: e.maxHeap, rng: &rng}
}

// checkRestore validates a restored event's position: it must not be in
// the engine's past, and its sequence number must already have been
// issued (restoring is re-registration of an existing event, never a way
// to mint new ones).
func (e *Engine) checkRestore(when Time, seq uint64) {
	if when < e.now {
		panic(fmt.Sprintf("sim: restoring event at %v before now %v", when, e.now))
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: restoring event with unissued sequence number %d (next %d)", seq, e.seq))
	}
}

// scheduleAt queues ev at an explicit (time, sequence) position.
func (e *Engine) scheduleAt(ev *Event, when Time, seq uint64) Handle {
	ev.when = when
	ev.seq = seq
	e.heapPush(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// RestoreAtCall re-registers a live callback event from a forked engine
// at its original (time, sequence) position.
func (e *Engine) RestoreAtCall(when Time, seq uint64, cb func(uint64), arg uint64) Handle {
	e.checkRestore(when, seq)
	ev := e.get()
	ev.cb = cb
	ev.arg = arg
	return e.scheduleAt(ev, when, seq)
}

// RestoreFrom arms tm at the exact (time, sequence) position of src's
// pending fire — the Timer leg of an engine fork, used by cloned owners
// whose timer was armed in the source world. A source timer that is
// unarmed, or lazily stopped with its event still queued, restores to
// unarmed: a stopped-but-queued timer fires nothing and Reset assigns a
// fresh sequence number whether or not the dead event is still in the
// queue, so dropping it is behaviour-preserving.
func (tm *Timer) RestoreFrom(src *Timer) {
	if !src.Pending() {
		return
	}
	e := tm.eng
	e.checkRestore(src.ev.when, src.ev.seq)
	if tm.ev.index != notQueued {
		panic("sim: RestoreFrom on an armed timer")
	}
	tm.ev.canceled = false
	e.scheduleAt(&tm.ev, src.ev.when, src.ev.seq)
}
