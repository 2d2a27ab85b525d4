// Package machine glues the substrates into a runnable system: a simulated
// multicore NUMA machine (topology) driven by a deterministic event engine
// (sim), scheduled by the CFS model (sched), and executing workload
// *programs* — small instruction lists interpreted by a virtual machine.
//
// Programs give workloads exactly the behaviours the paper's applications
// exhibit: CPU bursts, sleeps, blocking waits with waker-based wakeups
// (the Overload-on-Wakeup trigger, §3.3), and spinlocks/spin-barriers
// whose waiters burn CPU without progressing — the mechanism behind the
// paper's superlinear slowdowns ("the thread that executes the critical
// section may be descheduled in favour of a thread that will waste its
// timeslice by spinning", §3.2).
package machine

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// OpKind identifies a program instruction.
type OpKind uint8

// Instruction kinds.
const (
	// OpCompute consumes Dur of CPU time (scaled by the process's
	// parallel-efficiency model).
	OpCompute OpKind = iota
	// OpSleep blocks for Dur of wall-clock time (timer wakeup).
	OpSleep
	// OpLock acquires the spinlock Obj, spinning on-CPU while held.
	OpLock
	// OpUnlock releases the spinlock Obj.
	OpUnlock
	// OpBarrier joins spin-barrier Obj; the thread spins until all
	// participants arrive.
	OpBarrier
	// OpWait blocks on wait-queue Obj until another thread signals it.
	OpWait
	// OpSignal wakes one waiter of wait-queue Obj (the calling thread is
	// the waker, driving wakeup placement).
	OpSignal
	// OpSignalAll wakes every waiter of wait-queue Obj.
	OpSignalAll
	// OpPop takes a task from work-queue Obj, blocking while it is
	// empty; the popped task's duration is then computed.
	OpPop
	// OpPush adds Count tasks of Dur each to work-queue Obj, waking
	// blocked poppers.
	OpPush
	// OpDrain blocks until work-queue Obj is empty and all popped tasks
	// have completed.
	OpDrain
	// OpJump loops: jump to instruction To, Count times.
	OpJump
	// OpExit terminates the thread.
	OpExit
	// OpWaitFlag spins on-CPU until spin-flag Obj has a token, then
	// consumes it.
	OpWaitFlag
	// OpPostFlag posts a token to spin-flag Obj without blocking.
	OpPostFlag
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpSleep:
		return "sleep"
	case OpLock:
		return "lock"
	case OpUnlock:
		return "unlock"
	case OpBarrier:
		return "barrier"
	case OpWait:
		return "wait"
	case OpSignal:
		return "signal"
	case OpSignalAll:
		return "signal-all"
	case OpPop:
		return "pop"
	case OpPush:
		return "push"
	case OpDrain:
		return "drain"
	case OpJump:
		return "jump"
	case OpExit:
		return "exit"
	case OpWaitFlag:
		return "wait-flag"
	case OpPostFlag:
		return "post-flag"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Instr is one program instruction. It packs into 32 bytes — the NAS
// programs are fully unrolled, so one 64-thread launch holds hundreds of
// thousands of them — which bounds the integer fields to int32. Object
// ids and jump targets are indices into in-memory slices, far below
// that; for the caller-supplied repeat and push counts, fan-outs and
// depths, the Builder panics on a value that does not fit rather than
// truncate it.
type Instr struct {
	Kind   OpKind
	Obj    int32    // lock/barrier/queue object id
	Dur    sim.Time // compute/sleep/push durations
	To     int32    // jump target pc
	Count  int32    // jump iterations or push count
	Fanout int32    // children per completed pushed task
	Depth  int32    // fan-out depth of pushed tasks
}

// Program is an instruction list executed by one thread.
type Program []Instr

// Builder assembles Programs with structured loops. Its buffer is
// scratch: Build copies the program out, and Reset empties the buffer
// for the next program without releasing it, so one builder can emit
// many programs while growing its buffer only to the largest.
type Builder struct {
	prog Program
}

// NewProgram returns an empty program builder.
func NewProgram() *Builder { return &Builder{} }

// Compute appends a CPU burst of duration d.
func (b *Builder) Compute(d sim.Time) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpCompute, Dur: d})
	return b
}

// Sleep appends a timed block of duration d.
func (b *Builder) Sleep(d sim.Time) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpSleep, Dur: d})
	return b
}

// Lock appends a spinlock acquire of lock l.
func (b *Builder) Lock(l *SpinLock) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpLock, Obj: int32(l.id)})
	return b
}

// Unlock appends a spinlock release of lock l.
func (b *Builder) Unlock(l *SpinLock) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpUnlock, Obj: int32(l.id)})
	return b
}

// Barrier appends a spin-barrier join.
func (b *Builder) Barrier(bar *SpinBarrier) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpBarrier, Obj: int32(bar.id)})
	return b
}

// Wait appends a blocking wait on q.
func (b *Builder) Wait(q *WaitQueue) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpWait, Obj: int32(q.id)})
	return b
}

// Signal appends a wake-one of q.
func (b *Builder) Signal(q *WaitQueue) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpSignal, Obj: int32(q.id)})
	return b
}

// SignalAll appends a wake-all of q.
func (b *Builder) SignalAll(q *WaitQueue) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpSignalAll, Obj: int32(q.id)})
	return b
}

// Pop appends a blocking task-pop from work queue q.
func (b *Builder) Pop(q *WorkQueue) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpPop, Obj: int32(q.id)})
	return b
}

// Push appends an enqueue of count tasks of duration each onto q.
func (b *Builder) Push(q *WorkQueue, count int, each sim.Time) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpPush, Obj: int32(q.id),
		Count: fitInt32("push count", count), Dur: each})
	return b
}

// PushTree appends an enqueue of count tree tasks: each completed task
// spawns fanout children down to the given depth, so the worker that
// finishes a task wakes the workers that take its children.
func (b *Builder) PushTree(q *WorkQueue, count int, each sim.Time, fanout, depth int) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpPush, Obj: int32(q.id),
		Count: fitInt32("push count", count), Dur: each,
		Fanout: fitInt32("push fanout", fanout), Depth: fitInt32("push depth", depth)})
	return b
}

// Drain appends a block-until-queue-fully-processed on q.
func (b *Builder) Drain(q *WorkQueue) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpDrain, Obj: int32(q.id)})
	return b
}

// WaitFlag appends a spin-wait on f (consume one token).
func (b *Builder) WaitFlag(f *SpinFlag) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpWaitFlag, Obj: int32(f.id)})
	return b
}

// PostFlag appends a token post to f.
func (b *Builder) PostFlag(f *SpinFlag) *Builder {
	b.prog = append(b.prog, Instr{Kind: OpPostFlag, Obj: int32(f.id)})
	return b
}

// Repeat executes body count times.
func (b *Builder) Repeat(count int, body func(*Builder)) *Builder {
	if count <= 0 {
		return b
	}
	fitInt32("repeat count", count)
	start := len(b.prog)
	body(b)
	if len(b.prog) == start {
		return b // empty body: nothing to loop over
	}
	if count > 1 {
		b.prog = append(b.prog, Instr{Kind: OpJump, To: int32(start), Count: int32(count - 1)})
	}
	return b
}

// Build returns the program with an implicit Exit appended, in a new
// slice of exactly its length: the builder's buffer stays its own.
func (b *Builder) Build() Program {
	prog := make(Program, len(b.prog)+1)
	copy(prog, b.prog)
	prog[len(b.prog)] = Instr{Kind: OpExit}
	return prog
}

// Reset empties the builder for the next program, keeping its buffer.
// Programs already built are unaffected.
func (b *Builder) Reset() *Builder {
	b.prog = b.prog[:0]
	return b
}

// fitInt32 narrows a builder argument to its int32 Instr field, panicking
// rather than truncating a value out of range.
func fitInt32(what string, v int) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		panic(fmt.Sprintf("machine: %s %d does not fit in an int32 Instr field", what, v))
	}
	return int32(v)
}
