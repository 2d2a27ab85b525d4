package machine

import "repro/internal/sim"

// SpinLock models a user-space spinlock: contenders stay on-CPU, burning
// their timeslice without making progress, exactly the behaviour that
// turns scheduler placement bugs into superlinear slowdowns (§3.2: NAS
// applications "use spinlocks and spin-barriers; ... the thread that
// executes the critical section may be descheduled in favour of a thread
// that will waste its timeslice by spinning").
type SpinLock struct {
	id       int
	holder   *MThread
	spinners []*MThread // FIFO arrival order

	// Contention statistics.
	Acquisitions uint64
	Contended    uint64
}

// Held reports whether the lock is currently held.
func (l *SpinLock) Held() bool { return l.holder != nil }

// ID returns the lock's machine-wide sequential id.
func (l *SpinLock) ID() int { return l.id }

// SpinBarrier models a spin-wait barrier over a fixed number of parties.
// Arrivals spin on-CPU until the last party arrives. With a non-zero
// blockAfter the barrier is adaptive, like OpenMP's spin-then-yield wait
// policy: a waiter that has spun for blockAfter blocks (futex) and is
// woken by the releasing thread — routing barrier waits through the
// scheduler's wakeup-placement path.
type SpinBarrier struct {
	id         int
	parties    int
	arrived    []*MThread
	blockAfter sim.Time

	// Completions counts barrier episodes.
	Completions uint64
	// Blocks counts spin-to-block conversions.
	Blocks uint64
}

// Parties returns the number of participants.
func (b *SpinBarrier) Parties() int { return b.parties }

// SpinFlag is a directional busy-wait handoff: consumers spin on-CPU until
// a token is posted (producers never block). It models the flag arrays NAS
// lu uses for its pipelined wavefront — "threads wait for the data
// processed by other threads" (§3.2) — where a descheduled producer leaves
// every downstream consumer burning cycles.
type SpinFlag struct {
	id       int
	tokens   int
	spinners []*MThread

	Posts uint64
	Waits uint64
}

// Tokens returns the number of posted-but-unconsumed tokens.
func (f *SpinFlag) Tokens() int { return f.tokens }

// WaitQueue models futex-style blocking waits: waiters leave the CPU
// entirely and are woken by another thread — the wakeup path where the
// Overload-on-Wakeup bug lives (§3.3). Signals with no waiter are lost,
// as with condition variables.
type WaitQueue struct {
	id      int
	waiters []*MThread

	Signals     uint64
	LostSignals uint64
}

// Waiters returns the number of blocked threads.
func (q *WaitQueue) Waiters() int { return len(q.waiters) }

// Task is one unit of work in a WorkQueue. A completed task with Depth > 0
// pushes Fanout child tasks, so work fans out through the worker pool and
// workers wake each other — the producer-consumer pattern whose wakeups
// trigger the Overload-on-Wakeup bug (§3.3).
type Task struct {
	Dur    sim.Time
	Fanout int
	Depth  int
	// OnDone, when non-nil, runs when the task's compute completes — the
	// hook request-serving workloads use to timestamp per-request
	// completion (sojourn = completion − arrival).
	OnDone func()
}

// WorkQueue models a pool-of-workers task queue (the commercial database
// of §3.3: "a handful of container processes each provide several dozens
// of worker threads"). Pop blocks while empty; Push wakes blocked
// poppers; Drain blocks until every pushed task has been fully processed.
//
// The pending tasks are tasks[head:]. Pops advance head and clear the
// slot they leave, and the queue rewinds to the start of its buffer when
// it empties, so a queue that fills and drains in cycles reuses one
// buffer and stops allocating. A queue that never empties (a saturated
// server) reclaims its popped prefix on push: when the buffer is full
// and at least half of it has been popped, the pending tasks slide down
// to the start; otherwise append grows the buffer. Each slide leaves at
// least half the buffer free, so pushes stay O(1) amortized and the
// buffer stays within a small multiple of the backlog.
type WorkQueue struct {
	id          int
	tasks       []Task
	head        int // index of the next task to pop
	outstanding int // popped but not yet completed
	popWaiters  []*MThread
	drainers    []*MThread

	Pushed    uint64
	Completed uint64
}

// Pending returns the number of queued (not yet popped) tasks.
func (q *WorkQueue) Pending() int { return len(q.tasks) - q.head }

// Outstanding returns the number of popped-but-unfinished tasks.
func (q *WorkQueue) Outstanding() int { return q.outstanding }

// Idle reports whether the queue is empty with nothing outstanding.
func (q *WorkQueue) Idle() bool { return q.Pending() == 0 && q.outstanding == 0 }

// push appends task at the tail.
func (q *WorkQueue) push(task Task) {
	if q.head > 0 && len(q.tasks) == cap(q.tasks) && 2*q.head >= len(q.tasks) {
		n := copy(q.tasks, q.tasks[q.head:])
		clear(q.tasks[n:])
		q.tasks = q.tasks[:n]
		q.head = 0
	}
	q.tasks = append(q.tasks, task)
	q.Pushed++
}

// pop removes and returns the task at the head; the queue must not be
// empty.
func (q *WorkQueue) pop() Task {
	task := q.tasks[q.head]
	q.tasks[q.head] = Task{} // release its OnDone closure
	q.head++
	if q.head == len(q.tasks) {
		q.tasks = q.tasks[:0]
		q.head = 0
	}
	return task
}
