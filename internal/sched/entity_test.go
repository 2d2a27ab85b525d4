package sched

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestWeightForNice(t *testing.T) {
	cases := map[int]int64{
		0:   1024,
		-20: 88761,
		19:  15,
		5:   335,
		-5:  3121,
	}
	for nice, want := range cases {
		if got := WeightForNice(nice); got != want {
			t.Errorf("WeightForNice(%d) = %d, want %d", nice, got, want)
		}
	}
	// Clamping.
	if WeightForNice(-100) != 88761 || WeightForNice(100) != 15 {
		t.Error("nice clamping broken")
	}
	// Each level ~1.25x apart.
	for n := MinNice; n < MaxNice; n++ {
		ratio := float64(WeightForNice(n)) / float64(WeightForNice(n+1))
		if ratio < 1.1 || ratio > 1.4 {
			t.Errorf("weight ratio at nice %d = %.3f, want ~1.25", n, ratio)
		}
	}
}

func TestLoadAvgDecay(t *testing.T) {
	// A thread that stops being runnable halves its average every 32ms.
	la, m := loadAvg{avg: 1.0, runnable: false}, new(decayMemo)
	la.advance(loadHalfLife, m)
	if math.Abs(la.avg-0.5) > 1e-9 {
		t.Fatalf("avg after one half-life = %v, want 0.5", la.avg)
	}
	la.advance(2*loadHalfLife, m)
	if math.Abs(la.avg-0.25) > 1e-9 {
		t.Fatalf("avg after second half-life = %v, want 0.25", la.avg)
	}
}

func TestLoadAvgRampUp(t *testing.T) {
	// A thread that becomes runnable converges toward 1.
	la, m := loadAvg{avg: 0, runnable: true}, new(decayMemo)
	la.advance(loadHalfLife, m)
	if math.Abs(la.avg-0.5) > 1e-9 {
		t.Fatalf("avg = %v, want 0.5", la.avg)
	}
	la.advance(10*loadHalfLife, m)
	if la.avg < 0.999 {
		t.Fatalf("avg should converge to 1, got %v", la.avg)
	}
}

func TestLoadAvgSetRunnable(t *testing.T) {
	la, m := loadAvg{avg: 1.0, runnable: true}, new(decayMemo)
	la.setRunnable(loadHalfLife, false, m) // advance then flip
	if math.Abs(la.avg-1.0) > 1e-9 {
		t.Fatalf("runnable period should hold avg at 1, got %v", la.avg)
	}
	la.advance(3*loadHalfLife, m) // two half-lives after the flip
	if math.Abs(la.avg-0.25) > 1e-9 {
		t.Fatalf("avg = %v, want 0.25", la.avg)
	}
}

// TestDecayMemoExact: the memo returns decayFactor bit for bit, on the
// miss that fills a slot, on the hit that reads it, and after a
// colliding elapsed time evicts it; and its hash spreads the multiples
// of the tick period that most folds see instead of piling them into a
// few slots.
func TestDecayMemoExact(t *testing.T) {
	m := new(decayMemo)
	tick := DefaultConfig().TickPeriod
	for round := 0; round < 3; round++ {
		for _, d := range []sim.Time{1, 999, tick, 3 * tick, 64 * tick, loadHalfLife, 7*tick + 13, 1 << 40} {
			if got, want := m.factor(d), decayFactor(d); got != want {
				t.Fatalf("round %d: factor(%v) = %v, want %v", round, d, got, want)
			}
		}
	}
	slots := map[uint64]bool{}
	for k := sim.Time(1); k <= 64; k++ {
		slots[decaySlot(k*tick)] = true
	}
	if len(slots) < 32 {
		t.Fatalf("the first 64 tick multiples fill %d of 64 slots, want at least 32", len(slots))
	}
}

func TestDeltaVruntime(t *testing.T) {
	t0 := &Thread{wt: NICE0Load}
	if got := t0.deltaVruntime(10 * sim.Millisecond); got != 10*sim.Millisecond {
		t.Fatalf("nice-0 delta = %v", got)
	}
	heavy := &Thread{wt: 2048} // double weight -> half vruntime
	if got := heavy.deltaVruntime(10 * sim.Millisecond); got != 5*sim.Millisecond {
		t.Fatalf("heavy delta = %v", got)
	}
	light := &Thread{wt: 512} // half weight -> double vruntime
	if got := light.deltaVruntime(10 * sim.Millisecond); got != 20*sim.Millisecond {
		t.Fatalf("light delta = %v", got)
	}
}

func TestThreadLoadGroupDivision(t *testing.T) {
	// §3.1: "a thread in the 64-thread make process has a load roughly 64
	// times smaller than a thread in a single-threaded R process."
	auto := &TaskGroup{id: 1, name: "make", threads: 64, divide: true}
	solo := &TaskGroup{id: 2, name: "R", threads: 1, divide: true}
	makeT := &Thread{wt: NICE0Load, group: auto, la: loadAvg{avg: 1, runnable: true}}
	rT := &Thread{wt: NICE0Load, group: solo, la: loadAvg{avg: 1, runnable: true}}
	m := new(decayMemo)
	ml, rl := makeT.load(0, m), rT.load(0, m)
	if math.Abs(ml-16) > 1e-9 {
		t.Fatalf("make thread load = %v, want 16", ml)
	}
	if math.Abs(rl-1024) > 1e-9 {
		t.Fatalf("R thread load = %v, want 1024", rl)
	}
	// Root group: no division.
	root := &TaskGroup{id: 0, threads: 64, divide: false}
	rootT := &Thread{wt: NICE0Load, group: root, la: loadAvg{avg: 1, runnable: true}}
	if got := rootT.load(0, m); math.Abs(got-1024) > 1e-9 {
		t.Fatalf("root thread load = %v, want 1024", got)
	}
}

func TestThreadStateString(t *testing.T) {
	states := []ThreadState{StateNew, StateRunnable, StateRunning, StateSleeping, StateBlocked, StateExited, ThreadState(42)}
	want := []string{"new", "runnable", "running", "sleeping", "blocked", "exited", "invalid"}
	for i, st := range states {
		if st.String() != want[i] {
			t.Errorf("state %d String = %q, want %q", i, st.String(), want[i])
		}
	}
}
