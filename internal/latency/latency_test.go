package latency

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{999, 0},
		{1000, 1},               // 1µs
		{1999, 1},               // still [1,2)µs
		{2000, 2},               // 2µs
		{1_000_000, 10},         // 1ms = 1000µs ∈ [512,1024)µs... bits.Len64(1000)=10
		{int64(sim.Second), 20}, // 1e6µs: bits.Len64(1000000)=20
		{1 << 62, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := BucketIndex(c.ns); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every bucket's lower bound maps back into that bucket, and bounds
	// are strictly increasing.
	for i := 1; i < NumBuckets; i++ {
		if BucketBoundNs(i) <= BucketBoundNs(i-1) {
			t.Fatalf("bucket bounds not increasing at %d", i)
		}
		if got := BucketIndex(BucketBoundNs(i)); got != i {
			t.Errorf("BucketIndex(bound %d) = %d, want %d", BucketBoundNs(i), got, i)
		}
	}
}

func TestMakeDigest(t *testing.T) {
	if MakeDigest(nil) != nil {
		t.Fatal("empty stream should give a nil digest")
	}
	d := MakeDigest([]int64{1000})
	if d.Count != 1 || d.P50Ns != 1000 || d.P99Ns != 1000 || d.MaxNs != 1000 || d.MeanNs != 1000 {
		t.Fatalf("single-sample digest = %+v", d)
	}
	if !reflect.DeepEqual(d.Buckets, []int64{0, 1}) {
		t.Fatalf("single-sample buckets = %v", d.Buckets)
	}

	// Percentiles are ordered and bounded for an arbitrary stream, and
	// the digest is independent of sample order.
	rng := rand.New(rand.NewSource(1))
	ns := make([]int64, 500)
	for i := range ns {
		ns[i] = rng.Int63n(int64(10 * sim.Millisecond))
	}
	d = MakeDigest(ns)
	if !(d.P50Ns <= d.P95Ns && d.P95Ns <= d.P99Ns && d.P99Ns <= d.MaxNs) {
		t.Fatalf("percentiles out of order: %+v", d)
	}
	var total int64
	for _, b := range d.Buckets {
		total += b
	}
	if total != d.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, d.Count)
	}
	shuffled := append([]int64(nil), ns...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	a, _ := json.Marshal(d)
	b, _ := json.Marshal(MakeDigest(shuffled))
	if string(a) != string(b) {
		t.Fatal("digest depends on sample order")
	}
}

// TestStreakDetection drives the collector's placement state machine
// directly: only busy-while-idle placements extend a run, a run counts
// the moment it reaches K, and an interruption resets it.
func TestStreakDetection(t *testing.T) {
	c := NewCollector(Config{StreakK: 3})
	busyIdle := func(at sim.Time) { c.WakeupPlaced(at, nil, 0, true, true) }

	// Two placements: below K, no streak.
	busyIdle(1)
	busyIdle(2)
	if c.StreakCount() != 0 {
		t.Fatal("streak counted below K")
	}
	// Interrupt with an idle placement: run resets.
	c.WakeupPlaced(3, nil, 0, false, true)
	busyIdle(4)
	busyIdle(5)
	if c.StreakCount() != 0 {
		t.Fatal("reset did not clear the run")
	}
	// Third consecutive: one streak, counted immediately.
	busyIdle(6)
	if c.StreakCount() != 1 {
		t.Fatalf("streaks = %d, want 1", c.StreakCount())
	}
	// Extending the same run does not double-count but grows Longest.
	busyIdle(7)
	busyIdle(8)
	st := c.StreakStats()
	if st.Streaks != 1 || st.Longest != 5 || st.Wakeups != 5 {
		t.Fatalf("streak stats = %+v", st)
	}
	if st.LongestStartNs != 4 || st.LongestEndNs != 8 {
		t.Fatalf("longest window = [%d,%d], want [4,8]", st.LongestStartNs, st.LongestEndNs)
	}
	// Busy placement with no idle core available is legal saturation:
	// it must also reset the run.
	c.WakeupPlaced(9, nil, 0, true, false)
	busyIdle(10)
	busyIdle(11)
	busyIdle(12)
	if c.StreakStats().Streaks != 2 {
		t.Fatalf("streaks = %d, want 2", c.StreakStats().Streaks)
	}
	// Mutating the returned copy must not affect the collector.
	c.StreakStats().Streaks = 99
	if c.StreakCount() != 2 {
		t.Fatal("StreakStats returned a live reference")
	}
}

// TestCollectorReset: a reset collector behaves like a new one — no
// samples, no streaks, and a run open before the reset does not carry
// over into the next streak.
func TestCollectorReset(t *testing.T) {
	c := NewCollector(Config{StreakK: 3})
	for at := sim.Time(1); at <= 5; at++ {
		c.WakeupPlaced(at, nil, 0, true, true)
		c.WaitEnd(at, nil, 0, 10*at, true)
	}
	c.Reset()
	if c.Wakeups() != 0 || c.Waits() != 0 || c.StreakCount() != 0 || c.StreakStats() != nil ||
		c.WakeDigest() != nil {
		t.Fatalf("Reset left samples or streaks: wakeups=%d waits=%d streaks=%d",
			c.Wakeups(), c.Waits(), c.StreakCount())
	}
	c.WakeupPlaced(6, nil, 0, true, true)
	c.WakeupPlaced(7, nil, 0, true, true)
	if c.StreakCount() != 0 {
		t.Fatal("a run open before Reset completed a streak after it")
	}
	c.WakeupPlaced(8, nil, 0, true, true)
	if st := c.StreakStats(); st == nil || st.K != 3 || st.LongestStartNs != 6 {
		t.Fatalf("streak after Reset = %+v, want K=3 starting at 6", st)
	}
}

// TestCollectorOnMachine is the integration check: attached to a real
// scheduler, the collector sees wakeup-to-run delays and runqueue waits
// from an overcommitted core.
func TestCollectorOnMachine(t *testing.T) {
	m := machine.New(topology.SMP(2), sched.DefaultConfig(), 1)
	col := NewCollector(Config{})
	m.Sched.SetLatencyProbe(col)

	// Four compute+sleep loopers on two cores: plenty of wakeups and
	// preemption waits.
	p := m.NewProc("loopers", machine.ProcOpts{})
	for i := 0; i < 4; i++ {
		prog := machine.NewProgram().Repeat(20, func(b *machine.Builder) {
			b.Compute(2 * sim.Millisecond)
			b.Sleep(1 * sim.Millisecond)
		}).Build()
		p.SpawnOn(0, prog, machine.SpawnOpts{Name: "looper"})
	}
	if _, ok := m.RunUntilDone(10 * sim.Second); !ok {
		t.Fatal("loopers did not finish")
	}

	if col.Wakeups() == 0 || col.Waits() == 0 {
		t.Fatalf("collector saw %d wakeups, %d waits; want both > 0", col.Wakeups(), col.Waits())
	}
	if col.Waits() < col.Wakeups() {
		t.Fatal("every wakeup delay is also a runqueue wait; wait count cannot be smaller")
	}
	wd, qd := col.WakeDigest(), col.WaitDigest()
	if wd == nil || qd == nil {
		t.Fatal("digests missing")
	}
	if wd.MaxNs < 0 || qd.MaxNs < 0 {
		t.Fatal("negative wait span recorded")
	}
	if wd.Count != int64(col.Wakeups()) || qd.Count != int64(col.Waits()) {
		t.Fatal("digest counts disagree with collector counts")
	}
}

// floatCopyDigest is MakeDigest as it was before it sorted its input in
// place: the percentiles read a sorted float64 copy of the samples.
func floatCopyDigest(ns []int64) *Digest {
	if len(ns) == 0 {
		return nil
	}
	d := &Digest{Count: int64(len(ns))}
	xs := make([]float64, len(ns))
	var sum int64
	maxBucket := 0
	buckets := make([]int64, NumBuckets)
	for i, v := range ns {
		xs[i] = float64(v)
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
	sort.Float64s(xs)
	d.P50Ns = int64(stats.PercentileSorted(xs, 50))
	d.P95Ns = int64(stats.PercentileSorted(xs, 95))
	d.P99Ns = int64(stats.PercentileSorted(xs, 99))
	d.Buckets = buckets[:maxBucket+1]
	return d
}

// TestMakeDigestMatchesFloatCopy: sorting the int64 samples in place and
// converting two order statistics gives the digest a sorted float64 copy
// gives, on edge cases and on random streams.
func TestMakeDigestMatchesFloatCopy(t *testing.T) {
	const p52 = int64(1) << 52
	streams := [][]int64{
		{1000},
		{3_000_000, 5},
		{7, 7, 7, 7, 7, 7, 7},
		{p52 + 1, p52 - 3, p52, p52 - 1, p52 + 2, p52 - 2},
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 4097} {
		for _, span := range []int64{3, 1000, int64(10 * sim.Millisecond), int64(1000 * sim.Second)} {
			ns := make([]int64, n)
			for i := range ns {
				ns[i] = rng.Int63n(span)
			}
			streams = append(streams, ns)
		}
	}
	for _, ns := range streams {
		want := floatCopyDigest(append([]int64(nil), ns...))
		if got := MakeDigest(append([]int64(nil), ns...)); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: MakeDigest = %+v, float copy = %+v", len(ns), got, want)
		}
	}
}

// TestCollectorReuseAfterRelease: a collector made after another's
// Release may record into the released, grown buffers; its digests must
// equal those of its own stream alone, however long the stream before.
func TestCollectorReuseAfterRelease(t *testing.T) {
	feed := func(c *Collector, seed int64, n int) (wake, wait []int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			v := rng.Int63n(int64(10 * sim.Millisecond))
			c.WaitEnd(0, nil, 0, sim.Time(v), i%3 == 0)
			wait = append(wait, v)
			if i%3 == 0 {
				wake = append(wake, v)
			}
		}
		return wake, wait
	}
	first := NewCollector(Config{})
	feed(first, 1, 5000)
	first.WaitDigest()
	first.Release()
	for round := int64(0); round < 3; round++ {
		c := NewCollector(Config{})
		if c.Waits() != 0 || c.Wakeups() != 0 {
			t.Fatalf("round %d: a new collector starts with %d waits and %d wakeups", round, c.Waits(), c.Wakeups())
		}
		wake, wait := feed(c, 2+round, 300+int(round)*100)
		if got, want := c.WakeDigest(), MakeDigest(wake); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: wake digest %+v, want %+v", round, got, want)
		}
		if got, want := c.WaitDigest(), MakeDigest(wait); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: wait digest %+v, want %+v", round, got, want)
		}
		c.Release()
	}
}
