// Package trace implements the recording substrate of the paper's
// visualization tool (§4.2).
//
// The kernel instrumentation described in the paper stores fixed-size
// events in "a large global array in memory of a static size": every change
// to a runqueue's size (add_nr_running / sub_nr_running), every change to a
// runqueue's load (account_entity_enqueue / dequeue), and the set of cores
// considered by each load-balancing or thread-wakeup decision
// (select_idle_sibling, update_sg_lb_stats, find_busiest_queue,
// find_idlest_group). This package mirrors that design: a Recorder with a
// fixed capacity, compact events, and no sampling — every change is
// recorded while the recorder is active.
//
// The same record and the same ring carry the scheduler's decisions —
// why a balance pass declined to move work, which core a steal was
// refused from, which cores a wakeup considered before choosing one, and
// what caused each migration. Counterfactual episode replay
// (internal/explain) compares two worlds' decision streams: the first
// differing record is the decision a fix changed.
package trace

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// Kind discriminates event types, matching the three instrumentation
// families of §4.2 plus migrations (used by the sanity checker's monitoring
// phase, §4.1) and the decision kinds explain compares.
type Kind uint8

// Event kinds.
const (
	// KindRQSize records a change in a runqueue's size (nr_running).
	KindRQSize Kind = iota
	// KindRQLoad records a change in a runqueue's load.
	KindRQLoad
	// KindConsidered records the set of cores examined by a load-balancing
	// or wakeup decision.
	KindConsidered
	// KindMigration records a thread moving between cores: CPU is the
	// source, Dst the destination, Arg the thread id and Op the cause.
	KindMigration
	// KindFork records thread creation, KindExit thread exit. Both are
	// tracked by the sanity checker's monitoring phase.
	KindFork
	// KindExit records a thread exiting.
	KindExit
	// KindBalance records the outcome of one load-balancing decision with
	// the comparison values it used — the §4.1 profiling that exposed the
	// Group Imbalance bug ("we used these profiles to understand how the
	// load-balancing functions were executed and why they failed to
	// balance the load"). CPU is the balancing core, Op the balancer
	// flavor, Code the Verdict, Arg the local group's metric, Aux the
	// busiest group's (-1 when no busiest was found), Dst the number of
	// threads moved, and Mask the busiest group's cores.
	KindBalance
	// KindStealReject records a steal attempt that moved nothing: CPU is
	// the would-be thief, Dst the rejecting source core, Code the Verdict
	// explaining the rejection (pinned or cache-hot), Arg the busiest
	// group's metric that nominated the source, Mask the busiest group's
	// cores.
	KindStealReject
	// KindWakeup records a wakeup placement: CPU is the core the decision
	// ran against (the previous core), Dst the chosen core, Code the
	// WakePath, Arg the thread id, Aux 1 when the chosen core was busy
	// while an allowed core idled, Mask the considered cores.
	KindWakeup

	numKinds = iota
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case KindRQSize:
		return "rq-size"
	case KindRQLoad:
		return "rq-load"
	case KindConsidered:
		return "considered"
	case KindMigration:
		return "migration"
	case KindFork:
		return "fork"
	case KindExit:
		return "exit"
	case KindBalance:
		return "balance"
	case KindStealReject:
		return "steal-reject"
	case KindWakeup:
		return "wakeup"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// dstIsCore reports whether the kind's Dst field names a core.
func (k Kind) dstIsCore() bool {
	return k == KindMigration || k == KindStealReject || k == KindWakeup
}

// KindSet is a set of event kinds: what a Recorder keeps.
type KindSet uint16

// Kind sets of the recorder constructors.
const (
	// SchedKinds are the §4.2 tool's seven kinds, kept by NewRecorder.
	SchedKinds KindSet = 1<<KindRQSize | 1<<KindRQLoad | 1<<KindConsidered |
		1<<KindMigration | 1<<KindFork | 1<<KindExit | 1<<KindBalance
	// DecisionKinds are the four decision kinds explain compares, kept
	// by NewDecisionRing and counted by NewDecisionCounter.
	DecisionKinds KindSet = 1<<KindBalance | 1<<KindStealReject | 1<<KindWakeup | 1<<KindMigration
)

// Has reports whether k is in the set.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// Verdict is the outcome of a load-balancing decision (KindBalance).
type Verdict uint8

// Balance verdicts.
const (
	// VerdictMoved: threads were migrated toward the balancing core.
	VerdictMoved Verdict = iota
	// VerdictBalanced: the busiest group's metric did not exceed the
	// local group's (Algorithm 1 lines 15-16) — the verdict the Group
	// Imbalance bug produces while cores sit idle.
	VerdictBalanced
	// VerdictNoBusiest: no group had stealable queued threads.
	VerdictNoBusiest
	// VerdictPinned: stealing failed because of tasksets.
	VerdictPinned
	// VerdictHot: stealing skipped cache-hot threads and moved nothing.
	VerdictHot
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictMoved:
		return "moved"
	case VerdictBalanced:
		return "balanced"
	case VerdictNoBusiest:
		return "no-busiest"
	case VerdictPinned:
		return "pinned"
	case VerdictHot:
		return "cache-hot"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// WakePath is the placement path of a wakeup decision (KindWakeup).
type WakePath uint8

// Wakeup placement paths.
const (
	// WakeOriginal is the buggy select_task_rq_fair model.
	WakeOriginal WakePath = iota
	// WakeFixed is the overload-on-wakeup fix's idle-core scan.
	WakeFixed
	// WakePolicy is a placement-policy override.
	WakePolicy
)

// String names the path.
func (p WakePath) String() string {
	switch p {
	case WakeOriginal:
		return "original"
	case WakeFixed:
		return "fixed"
	case WakePolicy:
		return "policy"
	default:
		return fmt.Sprintf("path(%d)", uint8(p))
	}
}

// Op identifies which scheduler decision produced a KindConsidered event.
type Op uint8

// Considered-cores operations.
const (
	OpNone Op = iota
	// OpPeriodicBalance is the periodic load balancer (Algorithm 1).
	OpPeriodicBalance
	// OpNewIdleBalance is the "emergency" balance a core runs when it is
	// about to go idle.
	OpNewIdleBalance
	// OpNohzBalance is a balance run by the NOHZ balancer core on behalf
	// of a tickless idle core.
	OpNohzBalance
	// OpWakeup is thread-wakeup core selection (select_task_rq_fair).
	OpWakeup
	// OpFork is new-thread placement.
	OpFork
	// OpAffinity is a migration forced by an affinity-mask change.
	OpAffinity
	// OpSteal is a single-thread steal outside the balance pass
	// (Scheduler.StealOne, the global-queue disciplines' primitive).
	OpSteal
	// OpHotplug is a migration draining a CPU going offline.
	OpHotplug
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpPeriodicBalance:
		return "periodic"
	case OpNewIdleBalance:
		return "newidle"
	case OpNohzBalance:
		return "nohz"
	case OpWakeup:
		return "wakeup"
	case OpFork:
		return "fork"
	case OpAffinity:
		return "affinity"
	case OpSteal:
		return "steal"
	case OpHotplug:
		return "hotplug"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Mask is a bitset over cores, sized for machines up to 128 logical CPUs
// (the paper's machine has 64).
type Mask [2]uint64

// MaskBits is the number of cores a Mask can represent. Topologies are
// validated against this limit at construction (topology.New), so the
// panic in Set is a second line of defense with a readable message
// rather than the expected failure mode.
const MaskBits = 128

// Set sets bit c. It panics when c is outside [0, MaskBits): a wider
// machine would silently alias cores modulo the mask width otherwise.
func (m *Mask) Set(c int) {
	if c < 0 || c >= MaskBits {
		panic(fmt.Sprintf("trace: cpu %d out of Mask range [0,%d) — widen trace.Mask for larger machines", c, MaskBits))
	}
	m[c>>6] |= 1 << (c & 63)
}

// Has reports whether bit c is set.
func (m Mask) Has(c int) bool { return m[c>>6]&(1<<(c&63)) != 0 }

// Count returns the number of set bits.
func (m Mask) Count() int { return bits.OnesCount64(m[0]) + bits.OnesCount64(m[1]) }

// Event is one recorded scheduler event. The kernel version of this
// structure is 20 bytes; ours is 56 with alignment, and like the
// kernel's it is fixed-size so the recorder can bound its buffer. Field
// meaning depends on Kind (see the Kind constants).
type Event struct {
	At   sim.Time
	Kind Kind
	Op   Op
	Code uint8 // Verdict for KindBalance/KindStealReject, WakePath for KindWakeup
	CPU  int32 // core the event concerns
	Dst  int32 // destination core, rejecting core, or threads moved
	Arg  int64 // rq size, load, thread id, or a group metric depending on Kind
	Aux  int64 // busiest metric, or the busy-while-idle flag
	Mask Mask  // considered cores / busiest group span
}

// String renders one event for humans (explain reports).
func (ev Event) String() string {
	switch ev.Kind {
	case KindBalance:
		return fmt.Sprintf("%v balance[%s] cpu%d %s local=%d busiest=%d moved=%d",
			ev.At, ev.Op, ev.CPU, Verdict(ev.Code), ev.Arg, ev.Aux, ev.Dst)
	case KindStealReject:
		return fmt.Sprintf("%v steal-reject cpu%d <- cpu%d %s busiest=%d",
			ev.At, ev.CPU, ev.Dst, Verdict(ev.Code), ev.Arg)
	case KindWakeup:
		busy := ""
		if ev.Aux != 0 {
			busy = " busy-while-idle"
		}
		return fmt.Sprintf("%v wakeup t%d cpu%d -> cpu%d path=%s considered=%d%s",
			ev.At, ev.Arg, ev.CPU, ev.Dst, WakePath(ev.Code), ev.Mask.Count(), busy)
	case KindMigration:
		return fmt.Sprintf("%v migrate t%d cpu%d -> cpu%d cause=%s",
			ev.At, ev.Arg, ev.CPU, ev.Dst, ev.Op)
	default:
		return fmt.Sprintf("%v %s cpu%d %d", ev.At, ev.Kind, ev.CPU, ev.Arg)
	}
}

// Recorder accumulates the events of its kind set, up to a capacity.
// It starts stopped and records only between Start and Stop. Its
// constructor fixes what it keeps and how it overflows:
//
//   - keep-first (NewRecorder, NewRecorderOf): the kernel tool's static
//     buffer; events past the capacity are dropped;
//   - keep-last (NewDecisionRing): each event past the capacity
//     overwrites the oldest, since replay divergence analysis needs the
//     records nearest the episode;
//   - count-only (NewDecisionCounter): keeps nothing, but its Total and
//     Dropped equal those of a keep-last ring of the same capacity.
//
// The backing array starts empty and doubles on demand up to the
// capacity, so a recorder that keeps a few thousand events costs a few
// thousand events, not the capacity. Reset keeps the array, so a reused
// recorder stops allocating once it reaches its high-water mark.
type Recorder struct {
	events    []Event // len grows to limit; a keep-last ring then wraps
	limit     int     // capacity: the most events retained
	head      int     // keep-last: oldest event (next overwrite) once wrapped
	total     uint64  // events of the kind set offered while started
	kinds     KindSet
	active    bool
	keepLast  bool
	countOnly bool
}

// DefaultRingCap is the decision ring capacity explain uses: large
// enough to span several checker monitoring windows of decisions at
// smoke scales.
const DefaultRingCap = 1 << 16

// minGrow is the backing array's first size, in events.
const minGrow = 64

// NewRecorder returns a keep-first recorder of the seven §4.2 kinds
// (SchedKinds) with room for capacity events.
func NewRecorder(capacity int) *Recorder { return NewRecorderOf(capacity, SchedKinds) }

// NewRecorderOf returns a keep-first recorder of the given kinds with
// room for capacity events.
func NewRecorderOf(capacity int, kinds KindSet) *Recorder {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Recorder{limit: capacity, kinds: kinds}
}

// NewDecisionRing returns a keep-last recorder of the four decision
// kinds (DecisionKinds) that retains at most capacity events.
func NewDecisionRing(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Recorder{limit: capacity, kinds: DecisionKinds, keepLast: true}
}

// NewDecisionCounter returns a recorder that keeps no events but counts
// the decision kinds as NewDecisionRing(capacity) would: its Total and
// Dropped equal the ring's when fed the same events, its Len is 0, and
// Record never allocates.
func NewDecisionCounter(capacity int) *Recorder {
	r := NewDecisionRing(capacity)
	r.countOnly = true
	return r
}

// Start begins recording ("start a profiling session on demand", §4.2).
func (r *Recorder) Start() { r.active = true }

// Stop ends recording.
func (r *Recorder) Stop() { r.active = false }

// Active reports whether events are being recorded.
func (r *Recorder) Active() bool { return r.active }

// Wants reports whether the recorder is started and keeps kind k: the
// test a producer makes before computing an event's fields.
func (r *Recorder) Wants(k Kind) bool { return r.active && r.kinds.Has(k) }

// CountOnly reports whether the recorder keeps no event, only the count
// (NewDecisionCounter): Record reads nothing of an event but its kind.
func (r *Recorder) CountOnly() bool { return r.countOnly }

// Reset discards all recorded events and counts, keeping the backing
// array and the started state.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.head = 0
	r.total = 0
}

// Record offers ev: a started recorder whose kind set holds ev.Kind
// counts it and keeps it under its overflow rule. It allocates only to
// grow the backing array: never once the recorder holds capacity
// events, and never below the high-water mark of a reused recorder.
func (r *Recorder) Record(ev Event) {
	if !r.Wants(ev.Kind) {
		return
	}
	r.total++
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, ev)
		return
	}
	r.recordFull(ev)
}

// recordFull is Record's path for a full backing array — for a
// counter, whose array stays empty, every event's. Below the capacity
// the array doubles, clamped to [minGrow, limit] — explicitly, since
// append grows large slices by only 1.25x and would copy the events
// that many more times. At the capacity a keep-last ring overwrites
// its oldest event and a keep-first recorder drops ev.
//
//go:noinline
func (r *Recorder) recordFull(ev Event) {
	if r.countOnly {
		return
	}
	if n := len(r.events); n < r.limit {
		events := make([]Event, n, min(max(2*n, minGrow), r.limit))
		copy(events, r.events)
		r.events = append(events, ev)
		return
	}
	if !r.keepLast {
		return
	}
	r.events[r.head] = ev
	r.head++
	if r.head == len(r.events) {
		r.head = 0
	}
}

// Total reports how many events were offered while recording.
func (r *Recorder) Total() uint64 { return r.total }

// Dropped reports how many offered events are not retained: dropped by
// a keep-first recorder, overwritten in a keep-last ring.
func (r *Recorder) Dropped() uint64 { return r.total - min(r.total, uint64(r.limit)) }

// Len reports the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// Events returns the retained events, oldest first. The slice aliases
// internal storage and must not be modified. A keep-last ring that has
// wrapped is first rotated in place, without allocating.
func (r *Recorder) Events() []Event {
	if r.head != 0 {
		slices.Reverse(r.events[:r.head])
		slices.Reverse(r.events[r.head:])
		slices.Reverse(r.events)
		r.head = 0
	}
	return r.events
}
