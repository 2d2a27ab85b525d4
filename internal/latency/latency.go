// Package latency turns the scheduler's raw wait spans into the
// latency evidence the paper's bugs leave behind.
//
// The four bugs waste cores, but what a user sees is tail latency:
// threads sit runnable on overloaded queues while other cores idle
// (§3.1, §3.2), and Overload-on-Wakeup keeps stacking wakeups onto
// busy cores (§3.3). This package aggregates the sched.LatencyProbe
// event stream into two deterministic artifacts:
//
//   - Digests: fixed-bucket summaries of wakeup-to-run delay and
//     runqueue-wait spans, with exact p50/p95/p99/max read from the
//     collector's own sample buffer, sorted in place, with
//     stats.PercentileSorted — byte-stable JSON, so campaign artifacts
//     carrying them stay identical across worker counts, shard merges
//     and incremental re-runs;
//
//   - Streaks: runs of K consecutive wakeups placed on busy cores
//     while an allowed core sat idle. TPC-H's overload-on-wakeup
//     episodes are too short for the §4.1 invariant checker to confirm
//     (the monitoring window must keep filtering legal transients), but
//     the placement streak is visible at wakeup granularity — an
//     episode-level witness where the checker has none.
//
// A Collector is wired to one scheduler (one scenario); everything it
// records derives from virtual time, so campaign results built from it
// inherit the byte-identical-artifact guarantee. Its sample buffers are
// recycled across collectors: Release hands them to the next one.
package latency

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// DefaultStreakK is the default streak threshold: this many consecutive
// busy-while-idle wakeup placements form a witnessed streak. The value
// mirrors the spirit of the checker's monitoring window — short runs are
// legal scheduling noise (a wakeup can land on a busy core while the
// balancer is mid-flight); a sustained run means placement keeps
// choosing busy cores despite idle capacity, the §3.3 signature.
const DefaultStreakK = 4

// Config tunes a Collector.
type Config struct {
	// StreakK is the streak threshold (0 = DefaultStreakK).
	StreakK int
}

func (c Config) withDefaults() Config {
	if c.StreakK <= 0 {
		c.StreakK = DefaultStreakK
	}
	return c
}

// NumBuckets is the fixed bucket count of a Digest: bucket 0 holds
// samples under 1µs, bucket i in [1, NumBuckets-2] holds samples in
// [2^(i-1), 2^i) µs, and the last bucket holds everything from
// 2^(NumBuckets-2) µs (~67 virtual seconds) up.
const NumBuckets = 28

// BucketIndex maps a span in nanoseconds to its fixed bucket.
func BucketIndex(ns int64) int {
	if ns < 1000 {
		return 0
	}
	us := uint64(ns / 1000)
	i := bits.Len64(us) // 2^(i-1) <= us < 2^i
	if i > NumBuckets-1 {
		return NumBuckets - 1
	}
	return i
}

// BucketBoundNs returns the inclusive lower bound of bucket i in
// nanoseconds (0 for bucket 0).
func BucketBoundNs(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1000 << (i - 1)
}

// Digest is the byte-stable summary of one latency distribution. The
// percentiles are exact (computed over every sample, not estimated from
// the buckets); the buckets situate the distribution's shape and make
// digests comparable across scenarios at fixed boundaries.
type Digest struct {
	// Count is the number of samples.
	Count int64 `json:"count"`
	// MeanNs is the integer mean (sum/count, truncated).
	MeanNs int64 `json:"mean_ns"`
	// P50Ns, P95Ns and P99Ns are linear-interpolated percentiles
	// (stats.PercentileSorted), truncated to nanoseconds.
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
	// MaxNs is the largest sample.
	MaxNs int64 `json:"max_ns"`
	// Buckets are the fixed log-spaced counts (see BucketIndex), with
	// trailing zero buckets trimmed so the encoding stays compact.
	Buckets []int64 `json:"buckets,omitempty"`
}

// String renders the digest's headline numbers.
func (d *Digest) String() string {
	if d == nil || d.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50=%v p95=%v p99=%v max=%v (n=%d)",
		sim.Time(d.P50Ns), sim.Time(d.P95Ns), sim.Time(d.P99Ns), sim.Time(d.MaxNs), d.Count)
}

// MakeDigest summarizes a sample stream of nanosecond spans. It sorts ns
// in place, so the digest does not depend on the input order, and does
// not retain it. Returns nil for an empty stream, so artifact fields can
// omit empty digests.
func MakeDigest(ns []int64) *Digest {
	if len(ns) == 0 {
		return nil
	}
	d := &Digest{Count: int64(len(ns))}
	var sum int64
	maxBucket := 0
	buckets := make([]int64, NumBuckets)
	for _, v := range ns {
		sum += v
		b := BucketIndex(v)
		buckets[b]++
		if b > maxBucket {
			maxBucket = b
		}
		if v > d.MaxNs {
			d.MaxNs = v
		}
	}
	d.MeanNs = sum / d.Count
	// Spans are bounded by the scenario horizon (< 2^53 ns), so the
	// percentiles' float64 conversion is exact and the digest
	// byte-deterministic.
	slices.Sort(ns)
	d.P50Ns = int64(stats.PercentileSorted(ns, 50))
	d.P95Ns = int64(stats.PercentileSorted(ns, 95))
	d.P99Ns = int64(stats.PercentileSorted(ns, 99))
	d.Buckets = buckets[:maxBucket+1]
	return d
}

// Streaks is the wakeup-placement streak witness: how often placement
// put K or more consecutive wakeups on busy cores while an allowed core
// sat idle. A streak is counted the moment its K-th wakeup lands, so
// the stats are meaningful mid-run (the checker reads them inside its
// monitoring window) and a streak still open when the scenario ends is
// not lost.
type Streaks struct {
	// K is the threshold that defined these streaks.
	K int `json:"k"`
	// Streaks counts maximal runs that reached K.
	Streaks int `json:"streaks"`
	// Longest is the longest run's length (0 when Streaks is 0).
	Longest int `json:"longest,omitempty"`
	// Wakeups counts busy-while-idle wakeups inside counted streaks.
	Wakeups int64 `json:"wakeups,omitempty"`
	// LongestStartNs / LongestEndNs bound the longest run in virtual
	// time — the episode window a human (or the bisect report) can line
	// up against a trace.
	LongestStartNs int64 `json:"longest_start_ns,omitempty"`
	LongestEndNs   int64 `json:"longest_end_ns,omitempty"`
}

// String renders the streak witness in one line.
func (s *Streaks) String() string {
	if s == nil || s.Streaks == 0 {
		return "none"
	}
	return fmt.Sprintf("%d streaks of >=%d busy-while-idle wakeups (longest %d, %v..%v)",
		s.Streaks, s.K, s.Longest, sim.Time(s.LongestStartNs), sim.Time(s.LongestEndNs))
}

// samples is a collector's sample storage. Every context switch appends
// a wait span, so growing the buffers from nil in every scenario would
// dominate the collector's cost; samplePool recycles them instead.
type samples struct {
	wake []int64 // wakeup-to-run delays, ns
	wait []int64 // every runqueue-wait span, ns
}

var samplePool = sync.Pool{New: func() any { return new(samples) }}

// Collector accumulates one scheduler's latency evidence. It implements
// sched.LatencyProbe; attach with Scheduler.SetLatencyProbe.
type Collector struct {
	cfg Config
	buf *samples // from samplePool; nil once released

	// Streak state: the current run of busy-while-idle placements.
	run      int
	runStart sim.Time
	st       Streaks

	// streakHook fires the moment a run reaches K (once per streak) with
	// the run's start and the K-th placement's instant — the episode
	// witness the explain layer anchors its TPC-H counterfactuals on,
	// since §3.3 episodes are too short for the checker to confirm.
	streakHook func(start, at sim.Time)
}

// SetStreakHook installs (or clears, with nil) a callback fired when a
// busy-while-idle run reaches K. The hook runs inside WakeupPlaced —
// mid-wakeup — so implementations must not mutate scheduler state
// synchronously; defer real work to the engine (e.g. After(0, ...)).
func (c *Collector) SetStreakHook(fn func(start, at sim.Time)) { c.streakHook = fn }

// NewCollector returns a Collector with the given tuning, on sample
// buffers a released collector left in the pool when there is one.
func NewCollector(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	return &Collector{
		cfg: cfg,
		st:  Streaks{K: cfg.StreakK},
		buf: samplePool.Get().(*samples),
	}
}

// Reset discards every sample and the streak state, keeping the tuning,
// the streak hook and the sample buffers' capacity: a collector reused
// across runs (one per explain replay) stops allocating once its
// buffers reach their high-water mark.
func (c *Collector) Reset() {
	c.buf.wake = c.buf.wake[:0]
	c.buf.wait = c.buf.wait[:0]
	c.run = 0
	c.runStart = 0
	c.st = Streaks{K: c.cfg.StreakK}
}

// Release returns the sample buffers to the pool for the next collector.
// Call it once nothing will read the collector's samples again: after
// its digests are taken. A released collector must not record again.
func (c *Collector) Release() {
	c.Reset()
	samplePool.Put(c.buf)
	c.buf = nil
}

// WaitEnd implements sched.LatencyProbe.
func (c *Collector) WaitEnd(at sim.Time, t *sched.Thread, cpu topology.CoreID, wait sim.Time, wakeup bool) {
	b := c.buf
	b.wait = append(b.wait, int64(wait))
	if wakeup {
		b.wake = append(b.wake, int64(wait))
	}
}

// WakeupPlaced implements sched.LatencyProbe: busy-while-idle
// placements extend the current run, anything else ends it.
func (c *Collector) WakeupPlaced(at sim.Time, t *sched.Thread, cpu topology.CoreID, busy, idleAllowed bool) {
	if !busy || !idleAllowed {
		c.run = 0
		return
	}
	if c.run == 0 {
		c.runStart = at
	}
	c.run++
	switch {
	case c.run < c.cfg.StreakK:
		return
	case c.run == c.cfg.StreakK:
		c.st.Streaks++
		c.st.Wakeups += int64(c.cfg.StreakK)
		if c.streakHook != nil {
			c.streakHook(c.runStart, at)
		}
	default:
		c.st.Wakeups++
	}
	if c.run > c.st.Longest {
		c.st.Longest = c.run
		c.st.LongestStartNs = int64(c.runStart)
		c.st.LongestEndNs = int64(at)
	}
}

// WakeDigest summarizes the wakeup-to-run delays seen so far (nil when
// none), sorting the collector's buffer in place: no reader depends on
// the samples' arrival order.
func (c *Collector) WakeDigest() *Digest { return MakeDigest(c.buf.wake) }

// WaitDigest summarizes every runqueue-wait span seen so far (nil when
// none), sorting the collector's buffer in place.
func (c *Collector) WaitDigest() *Digest { return MakeDigest(c.buf.wait) }

// StreakStats returns a copy of the streak witness, or nil when no
// streak reached K — so artifact fields stay omitted for clean runs.
func (c *Collector) StreakStats() *Streaks {
	if c.st.Streaks == 0 {
		return nil
	}
	st := c.st
	return &st
}

// StreakCount returns the number of streaks counted so far (cheap; the
// checker polls it inside monitoring windows).
func (c *Collector) StreakCount() int { return c.st.Streaks }

// Wakeups returns how many wakeup-to-run delays have been recorded.
func (c *Collector) Wakeups() int { return len(c.buf.wake) }

// Waits returns how many runqueue-wait spans have been recorded.
func (c *Collector) Waits() int { return len(c.buf.wait) }
