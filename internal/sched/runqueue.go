package sched

import (
	"cmp"
	"slices"

	"repro/internal/sim"
)

// cfsRQ is a per-core CFS runqueue. In the kernel "Threads are organized
// in a runqueue, implemented as a red-black tree, in which the threads
// are sorted in the increasing order of their vruntime" (§2.1); the tree
// is there for runqueues of thousands of threads. The model's decisions
// depend only on the order, and its queues are short (over the full
// campaign matrix at scale 0.25 the median enqueue finds the queue empty
// and none finds more than 65 threads), so a slice kept sorted gives the
// same order for a binary search and a short copy per change. The
// running thread is kept outside the queue, as in the kernel. The zero
// value is an empty queue.
type cfsRQ struct {
	q           []*Thread // queued threads, sorted by rqCmp
	queuedWt    int64     // total weight of queued threads
	minVruntime sim.Time  // monotonic floor for newcomers
}

// rqCmp orders the CFS timeline: ascending vruntime, thread id as the
// tiebreak so ordering is total and deterministic. It reads the live
// vruntime, which is exact because no code writes a queued thread's
// vruntime: updateCurr writes only the running thread's, and enqueue
// placement and migration renormalization happen off the queue.
func rqCmp(a, b *Thread) int {
	if c := cmp.Compare(a.vruntime, b.vruntime); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// queued returns the number of threads waiting in the queue (excluding
// any running thread).
func (rq *cfsRQ) queued() int { return len(rq.q) }

// enqueue inserts t, which must not already be queued.
func (rq *cfsRQ) enqueue(t *Thread) {
	if t.queued {
		panic("sched: thread already queued")
	}
	i, _ := slices.BinarySearchFunc(rq.q, t, rqCmp)
	rq.q = slices.Insert(rq.q, i, t)
	t.queued = true
	rq.queuedWt += t.wt
	if checkFastPaths {
		rq.verify()
	}
}

// dequeue removes t, which must be queued here. It panics unless the
// binary search finds t at its key between correctly ordered
// neighbours, so a vruntime written while t was queued fails loudly
// instead of leaving the queue misordered.
func (rq *cfsRQ) dequeue(t *Thread) {
	if !t.queued {
		panic("sched: thread not queued")
	}
	i, found := slices.BinarySearchFunc(rq.q, t, rqCmp)
	if !found || rq.q[i] != t ||
		i > 0 && rqCmp(rq.q[i-1], t) > 0 ||
		i+1 < len(rq.q) && rqCmp(t, rq.q[i+1]) > 0 {
		panic("sched: queued thread not at its key (vruntime written while queued?)")
	}
	rq.q = slices.Delete(rq.q, i, i+1)
	t.queued = false
	rq.queuedWt -= t.wt
	if checkFastPaths {
		rq.verify()
	}
}

// verify panics unless the queue is sorted and queuedWt is the sum of
// the queued threads' weights (the checkFastPaths self-check).
func (rq *cfsRQ) verify() {
	if !slices.IsSortedFunc(rq.q, rqCmp) {
		panic("sched: runqueue out of (vruntime, tid) order")
	}
	var wt int64
	for _, t := range rq.q {
		wt += t.wt
	}
	if wt != rq.queuedWt {
		panic("sched: runqueue queuedWt differs from its threads' weights")
	}
}

// leftmost returns the queued thread with the smallest vruntime, or nil.
func (rq *cfsRQ) leftmost() *Thread {
	if len(rq.q) == 0 {
		return nil
	}
	return rq.q[0]
}

// updateMinVruntime advances the monotonic min_vruntime floor given the
// (possibly nil) current thread.
func (rq *cfsRQ) updateMinVruntime(curr *Thread) {
	min := rq.minVruntime
	cand := sim.Time(-1)
	if curr != nil {
		cand = curr.vruntime
	}
	if lm := rq.leftmost(); lm != nil {
		if cand < 0 || lm.vruntime < cand {
			cand = lm.vruntime
		}
	}
	if cand > min {
		rq.minVruntime = cand
	}
}
