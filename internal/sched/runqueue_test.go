package sched

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// checkRQ fails the test unless rq holds exactly ref, in order, with the
// matching leftmost thread, length, weight sum and queued flags.
func checkRQ(t *testing.T, step int, rq *cfsRQ, ref, all []*Thread) {
	t.Helper()
	if rq.queued() != len(ref) {
		t.Fatalf("step %d: queued() = %d, want %d", step, rq.queued(), len(ref))
	}
	var wt int64
	for i, th := range ref {
		if rq.q[i] != th {
			t.Fatalf("step %d: slot %d holds thread %d, want %d", step, i, rq.q[i].id, th.id)
		}
		wt += th.wt
	}
	if rq.queuedWt != wt {
		t.Fatalf("step %d: queuedWt = %d, want %d", step, rq.queuedWt, wt)
	}
	var want *Thread
	if len(ref) > 0 {
		want = ref[0]
	}
	if got := rq.leftmost(); got != want {
		t.Fatalf("step %d: leftmost() = %v, want %v", step, got, want)
	}
	n := 0
	for _, th := range all {
		if th.queued {
			n++
		}
	}
	if n != len(ref) {
		t.Fatalf("step %d: %d threads flagged queued, want %d", step, n, len(ref))
	}
}

// mustPanic fails the test unless fn panics with a message containing
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("recover() = %v, want a panic containing %q", r, want)
		}
	}()
	fn()
}

// TestRunqueueMatchesReference runs seeded random enqueue, dequeue and
// pick-leftmost sequences on one runqueue and, after every step,
// compares its order, leftmost thread, length and weight sum with a
// reference sorted by sort.Slice. Vruntimes come from four values, so
// the thread id breaks most ties. It then checks that dequeue fails
// loudly and that Clone carries every queue in order.
func TestRunqueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		all := make([]*Thread, 48)
		for i := range all {
			all[i] = &Thread{id: i, wt: WeightForNice(rng.Intn(11) - 5)}
		}
		var rq cfsRQ
		var ref []*Thread
		for step := 0; step < 3000; step++ {
			th := all[rng.Intn(len(all))]
			switch {
			case !th.queued:
				th.vruntime = sim.Time(rng.Intn(4)) * sim.Millisecond
				rq.enqueue(th)
				ref = append(ref, th)
			case rng.Intn(2) == 0:
				rq.dequeue(th)
				ref = removeThread(ref, th)
			default: // what schedule does: run the leftmost
				lm := rq.leftmost()
				rq.dequeue(lm)
				ref = removeThread(ref, lm)
			}
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].vruntime != ref[j].vruntime {
					return ref[i].vruntime < ref[j].vruntime
				}
				return ref[i].id < ref[j].id
			})
			checkRQ(t, step, &rq, ref, all)
		}
	}

	t.Run("dequeue unqueued", func(t *testing.T) {
		var rq cfsRQ
		a, b := &Thread{id: 0, wt: 1024}, &Thread{id: 1, wt: 1024}
		rq.enqueue(a)
		mustPanic(t, "not queued", func() { rq.dequeue(b) })
		mustPanic(t, "already queued", func() { rq.enqueue(a) })
	})

	// A vruntime written while queued is caught at the next dequeue
	// wherever it lands: in the middle of the queue the binary search
	// meets the moved thread itself, so only its neighbours tell.
	t.Run("dequeue after in-place write", func(t *testing.T) {
		for i := 0; i < 5; i++ {
			for _, v := range []sim.Time{-1, 1000} {
				var rq cfsRQ
				var q []*Thread
				for id := 0; id < 5; id++ {
					th := &Thread{id: id, wt: 1024, vruntime: sim.Time(10 * (id + 1))}
					rq.enqueue(th)
					q = append(q, th)
				}
				q[i].vruntime = v
				if (v < 0 && i == 0) || (v > 0 && i == 4) {
					rq.dequeue(q[i]) // still in order: nothing to catch
					continue
				}
				mustPanic(t, "not at its key", func() { rq.dequeue(q[i]) })
			}
		}
	})

	t.Run("clone", func(t *testing.T) {
		e := newEnv(topology.SMP(4), DefaultConfig())
		for i := 0; i < 14; i++ {
			e.hog("h", topology.CoreID(i%2), ThreadOpts{Nice: i%5 - 2, Affinity: NewCPUSet(topology.CoreID(i % 2))})
		}
		e.run(7 * sim.Millisecond)
		ns := e.s.Clone(e.eng.Fork())
		queued := 0
		for i, c := range e.s.cpus {
			nc := ns.cpus[i]
			if len(nc.rq.q) != len(c.rq.q) || nc.rq.queuedWt != c.rq.queuedWt || nc.rq.minVruntime != c.rq.minVruntime {
				t.Fatalf("cpu %d: clone queue (len %d, wt %d, min %v), source (len %d, wt %d, min %v)",
					i, len(nc.rq.q), nc.rq.queuedWt, nc.rq.minVruntime, len(c.rq.q), c.rq.queuedWt, c.rq.minVruntime)
			}
			for j, th := range c.rq.q {
				if nt := nc.rq.q[j]; nt != ns.threads[th.id] || nt == th || !nt.queued {
					t.Fatalf("cpu %d slot %d: clone holds %p (queued %v), want the clone's thread %d at %p",
						i, j, nt, nt.queued, th.id, ns.threads[th.id])
				}
			}
			queued += len(c.rq.q)
		}
		if queued < 10 {
			t.Fatalf("only %d threads queued: the world does not exercise the queues", queued)
		}
		// The clone's queues are its own: draining one leaves the
		// source's intact.
		src, dst := e.s.cpus[0], ns.cpus[0]
		want := append([]*Thread(nil), src.rq.q...)
		for len(dst.rq.q) > 0 {
			dst.rq.dequeue(dst.rq.q[0])
		}
		for j, th := range want {
			if src.rq.q[j] != th || !th.queued {
				t.Fatalf("draining the clone changed the source's slot %d", j)
			}
		}
	})
}

func removeThread(q []*Thread, t *Thread) []*Thread {
	for i, th := range q {
		if th == t {
			return append(q[:i], q[i+1:]...)
		}
	}
	panic("removeThread: not in the reference")
}
