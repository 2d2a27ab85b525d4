package obs

// Decision provenance: a bounded ring of the scheduler decisions
// that the paper's visualization tool (§4.2) had to reconstruct after
// the fact — why a balance pass declined to move work, which group
// metric rejected a steal, which cores a wakeup considered before
// choosing one, and what caused each migration. The ring is the raw
// material for counterfactual episode replay (internal/explain): when a
// fix replay diverges from the control replay, the first differing
// provenance record *is* the decision the fix changed.
//
// Like every other observability layer in the repo, provenance is
// opt-in and zero-cost when off: producers guard hook sites with
// `if prov == nil`. When on, a ring pays only for the records it keeps
// (keep-last-N with a drop counter, see ProvRing), and nothing here
// touches wall-clock state, so records are byte-deterministic.

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ProvKind discriminates provenance record types.
type ProvKind uint8

const (
	// ProvBalance records the outcome of one load-balancing pass: Op is
	// the balancer flavor, Code the trace.Verdict, Arg the local group's
	// metric, Aux the busiest group's metric (-1 when none), Mask the
	// busiest group's cores, CPU the balancing core, Dst the count of
	// threads moved.
	ProvBalance ProvKind = iota
	// ProvStealReject records a steal attempt that moved nothing: CPU is
	// the would-be thief, Dst the rejecting source core, Code the
	// trace.Verdict explaining the rejection (pinned or cache-hot), Arg
	// the busiest group's metric that nominated the source, Mask the
	// busiest group's cores.
	ProvStealReject
	// ProvWakeup records a wakeup placement: CPU is the core the decision
	// ran against (the previous/affine core), Dst the chosen core, Code
	// the placement path (see ProvWakeOriginal...), Arg the thread id,
	// Aux 1 when the chosen core was busy while an allowed core idled,
	// Mask the considered cores.
	ProvWakeup
	// ProvMigration records a thread migration: CPU source, Dst
	// destination, Arg the thread id, Code the trace.Op cause.
	ProvMigration
)

// Wakeup placement paths (ProvWakeup Code values).
const (
	// ProvWakeOriginal is the buggy select_task_rq_fair model.
	ProvWakeOriginal uint8 = iota
	// ProvWakeFixed is the overload-on-wakeup fix's idle-core scan.
	ProvWakeFixed
	// ProvWakePolicy is a placement-policy override.
	ProvWakePolicy
)

// String names the kind.
func (k ProvKind) String() string {
	switch k {
	case ProvBalance:
		return "balance"
	case ProvStealReject:
		return "steal-reject"
	case ProvWakeup:
		return "wakeup"
	case ProvMigration:
		return "migration"
	default:
		return fmt.Sprintf("prov(%d)", uint8(k))
	}
}

// ProvRecord is one fixed-size provenance record. Field meaning depends
// on Kind (see the ProvKind constants).
type ProvRecord struct {
	At   sim.Time
	Kind ProvKind
	Op   trace.Op
	Code uint8
	CPU  int32
	Dst  int32
	Arg  int64
	Aux  int64
	Mask trace.Mask
}

// String renders one record for humans (explain reports, trace args).
func (r ProvRecord) String() string {
	switch r.Kind {
	case ProvBalance:
		return fmt.Sprintf("%v balance[%s] cpu%d %s local=%d busiest=%d moved=%d",
			r.At, r.Op, r.CPU, trace.Verdict(r.Code), r.Arg, r.Aux, r.Dst)
	case ProvStealReject:
		return fmt.Sprintf("%v steal-reject cpu%d <- cpu%d %s busiest=%d",
			r.At, r.CPU, r.Dst, trace.Verdict(r.Code), r.Arg)
	case ProvWakeup:
		path := "original"
		switch r.Code {
		case ProvWakeFixed:
			path = "fixed"
		case ProvWakePolicy:
			path = "policy"
		}
		busy := ""
		if r.Aux != 0 {
			busy = " busy-while-idle"
		}
		return fmt.Sprintf("%v wakeup t%d cpu%d -> cpu%d path=%s considered=%d%s",
			r.At, r.Arg, r.CPU, r.Dst, path, r.Mask.Count(), busy)
	case ProvMigration:
		return fmt.Sprintf("%v migrate t%d cpu%d -> cpu%d cause=%s",
			r.At, r.Arg, r.CPU, r.Dst, trace.Op(r.Code))
	default:
		return fmt.Sprintf("%v %s", r.At, r.Kind)
	}
}

// ProvRing is a keep-last-N ring of provenance records. Like
// trace.Recorder it bounds memory by its capacity, but where the
// recorder drops new events once full, the ring overwrites the oldest —
// replay divergence analysis needs the records *nearest the episode*,
// which are always the newest.
//
// The backing array starts empty and doubles on demand up to the
// capacity, so a ring that keeps a few thousand records costs a few
// thousand records, not the capacity: each explain replay keeps
// hundreds to a few thousand. Reset keeps the array, so a reused ring
// stops allocating once it reaches its high-water mark.
//
// A ring made by NewProvCounter keeps no records at all, only the
// counts, for a consumer that reads nothing but Total and Dropped.
type ProvRing struct {
	recs      []ProvRecord // len grows to limit, then the ring wraps
	limit     int          // capacity: the most records retained
	head      int          // next write position once full
	total     uint64       // records ever offered
	countOnly bool         // NewProvCounter: count records, keep none
}

// DefaultProvCap is the ring capacity used when NewProvRing is given a
// non-positive capacity: large enough to span several checker
// monitoring windows of decisions at smoke scales.
const DefaultProvCap = 1 << 16

// minProvGrow is the backing array's first size, in records.
const minProvGrow = 64

// NewProvRing returns an empty ring that retains at most capacity
// records. It allocates no record storage until the first Record.
func NewProvRing(capacity int) *ProvRing {
	if capacity <= 0 {
		capacity = DefaultProvCap
	}
	return &ProvRing{limit: capacity}
}

// NewProvCounter returns a ring that keeps no records but counts them
// as a ring of the given capacity would: its Total and Dropped equal
// those of NewProvRing(capacity) fed the same records, its Len is 0,
// and Record never allocates.
func NewProvCounter(capacity int) *ProvRing {
	p := NewProvRing(capacity)
	p.countOnly = true
	return p
}

// Record appends r, overwriting the oldest record when full. It
// allocates only to grow the backing array: never once the ring holds
// capacity records, and never below the high-water mark of a reused
// ring.
func (p *ProvRing) Record(r ProvRecord) {
	p.total++
	if len(p.recs) < cap(p.recs) {
		p.recs = append(p.recs, r)
		return
	}
	p.recordFull(r)
}

// recordFull is Record's path for a full backing array — for a
// counter, whose array stays empty, every record's. Below the
// capacity the array doubles, clamped to [minProvGrow, limit] —
// explicitly, since append grows large slices by only 1.25x and would
// copy the records that many more times; at the capacity r overwrites
// the oldest record. It stays out of line so that Record is small
// enough to inline at the hook sites.
//
//go:noinline
func (p *ProvRing) recordFull(r ProvRecord) {
	if p.countOnly {
		return
	}
	if n := len(p.recs); n < p.limit {
		recs := make([]ProvRecord, n, min(max(2*n, minProvGrow), p.limit))
		copy(recs, p.recs)
		p.recs = append(recs, r)
		return
	}
	p.recs[p.head] = r
	p.head++
	if p.head == len(p.recs) {
		p.head = 0
	}
}

// Total reports how many records were ever offered.
func (p *ProvRing) Total() uint64 { return p.total }

// Dropped reports how many records were overwritten by newer ones:
// every record past the capacity overwrote the oldest.
func (p *ProvRing) Dropped() uint64 {
	return p.total - min(p.total, uint64(p.limit))
}

// Len reports the number of retained records.
func (p *ProvRing) Len() int { return len(p.recs) }

// Records appends the retained records to dst in time order (oldest
// first) and returns the extended slice.
func (p *ProvRing) Records(dst []ProvRecord) []ProvRecord {
	if len(p.recs) < p.limit {
		return append(dst, p.recs...)
	}
	dst = append(dst, p.recs[p.head:]...)
	return append(dst, p.recs[:p.head]...)
}

// Reset discards all retained records and counters, keeping the
// backing array for the next use.
func (p *ProvRing) Reset() {
	p.recs = p.recs[:0]
	p.head = 0
	p.total = 0
}
