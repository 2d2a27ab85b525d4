package trace

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
)

func TestRecorderInactiveDropsAll(t *testing.T) {
	r := NewRecorder(16)
	r.Record(Event{Kind: KindRQSize})
	if r.Len() != 0 {
		t.Fatal("inactive recorder stored an event")
	}
}

func TestRecorderStartStop(t *testing.T) {
	r := NewRecorder(16)
	r.Start()
	if !r.Active() {
		t.Fatal("not active after Start")
	}
	r.Record(Event{Kind: KindRQSize, CPU: 3, Arg: 2})
	r.Stop()
	r.Record(Event{Kind: KindRQSize, CPU: 4, Arg: 1})
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if ev := r.Events()[0]; ev.CPU != 3 || ev.Arg != 2 {
		t.Fatalf("wrong event stored: %+v", ev)
	}
}

func TestRecorderCapacity(t *testing.T) {
	r := NewRecorder(4)
	r.Start()
	for i := 0; i < 10; i++ {
		r.Record(Event{At: sim.Time(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// TestRecorderKindSets: each constructor keeps exactly its kind set,
// and events of other kinds are neither kept nor counted.
func TestRecorderKindSets(t *testing.T) {
	sched := []Kind{KindRQSize, KindRQLoad, KindConsidered, KindMigration, KindFork, KindExit, KindBalance}
	decision := []Kind{KindBalance, KindStealReject, KindWakeup, KindMigration}
	cases := []struct {
		name string
		r    *Recorder
		want []Kind
	}{
		{"NewRecorder", NewRecorder(64), sched},
		{"NewDecisionRing", NewDecisionRing(64), decision},
		{"NewDecisionCounter", NewDecisionCounter(64), decision},
		{"NewRecorderOf(both)", NewRecorderOf(64, SchedKinds|DecisionKinds), append(sched, KindStealReject, KindWakeup)},
	}
	for _, c := range cases {
		c.r.Start()
		var want KindSet
		for _, k := range c.want {
			want |= 1 << k
		}
		for k := Kind(0); k < numKinds+2; k++ {
			before := c.r.Total()
			c.r.Record(Event{Kind: k})
			kept := c.r.Total() > before
			if kept != want.Has(k) || c.r.Wants(k) != want.Has(k) {
				t.Errorf("%s: kind %s kept=%v wants=%v, want %v", c.name, k, kept, c.r.Wants(k), want.Has(k))
			}
		}
	}
}

// TestRecorderKeepLastKeepsNewest: a full keep-last ring overwrites its
// oldest events and returns the survivors oldest first.
func TestRecorderKeepLastKeepsNewest(t *testing.T) {
	r := NewDecisionRing(4)
	r.Start()
	for i := 0; i < 10; i++ {
		r.Record(Event{At: sim.Time(i), Kind: KindWakeup, Arg: int64(i)})
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	for i, ev := range r.Events() {
		if want := int64(6 + i); ev.Arg != want {
			t.Fatalf("event %d: Arg = %d, want %d (oldest-first, newest retained)", i, ev.Arg, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatalf("Reset left state: len=%d total=%d dropped=%d", r.Len(), r.Total(), r.Dropped())
	}
}

func TestRecorderKeepLastPartial(t *testing.T) {
	r := NewDecisionRing(8)
	r.Start()
	r.Record(Event{At: 1, Kind: KindBalance})
	r.Record(Event{At: 2, Kind: KindBalance})
	evs := r.Events()
	if len(evs) != 2 || evs[0].At != 1 || evs[1].At != 2 {
		t.Fatalf("partial ring order wrong: %+v", evs)
	}
}

// TestRecorderMatchesKeepNModels: a recorder that grows on demand must
// be indistinguishable from a plain keep-first-N (NewRecorder) or
// keep-last-N (NewDecisionRing) buffer — same Events, Total, Dropped
// and Len — at every event count on both sides of each growth step and
// of the capacity, fresh and after Reset, including a ring read in the
// middle of its wrap. A counter of the same capacity must report the
// ring's Total and Dropped while keeping nothing and never allocating.
func TestRecorderMatchesKeepNModels(t *testing.T) {
	for _, capacity := range []int{1, 3, 256, 257, 1000} {
		first := NewRecorder(capacity)
		ring := NewDecisionRing(capacity)
		ctr := NewDecisionCounter(capacity)
		for _, r := range []*Recorder{first, ring, ctr} {
			r.Start()
		}
		for n := 0; n <= 2*capacity+1; n++ {
			// Fresh for the first count, then reused: a dirty
			// recorder's Reset must leave no trace of the previous count.
			first.Reset()
			ring.Reset()
			var model []Event
			for i := 0; i < n; i++ {
				ev := Event{At: sim.Time(i), Kind: KindMigration, Arg: int64(i)}
				first.Record(ev)
				ring.Record(ev)
				model = append(model, ev)
				if i == n/2 {
					ring.Events() // rotates a wrapped ring mid-stream
				}
			}
			dropped := max(n-capacity, 0)
			for _, c := range []struct {
				name string
				r    *Recorder
				want []Event
			}{
				{"keep-first", first, model[:len(model)-dropped]},
				{"keep-last", ring, model[dropped:]},
			} {
				got := c.r.Events()
				if len(got) != len(c.want) {
					t.Fatalf("%s cap %d, %d events: Events has %d, want %d", c.name, capacity, n, len(got), len(c.want))
				}
				for i := range c.want {
					if got[i] != c.want[i] {
						t.Fatalf("%s cap %d, %d events: event %d = %+v, want %+v", c.name, capacity, n, i, got[i], c.want[i])
					}
				}
				if c.r.Total() != uint64(n) || c.r.Dropped() != uint64(dropped) || c.r.Len() != len(c.want) {
					t.Fatalf("%s cap %d, %d events: total=%d dropped=%d len=%d, want %d/%d/%d",
						c.name, capacity, n, c.r.Total(), c.r.Dropped(), c.r.Len(), n, dropped, len(c.want))
				}
				if cp := cap(c.r.events); cp > capacity {
					t.Fatalf("%s cap %d, %d events: backing array holds %d events", c.name, capacity, n, cp)
				}
			}

			// AllocsPerRun runs the body twice; the Reset makes the
			// second, measured run end with n events offered.
			allocs := testing.AllocsPerRun(1, func() {
				ctr.Reset()
				for i := 0; i < n; i++ {
					ctr.Record(Event{At: sim.Time(i), Kind: KindMigration, Arg: int64(i)})
				}
			})
			if allocs != 0 {
				t.Fatalf("cap %d, %d events: counter Record allocates %.1f", capacity, n, allocs)
			}
			if ctr.Total() != ring.Total() || ctr.Dropped() != ring.Dropped() || ctr.Len() != 0 {
				t.Fatalf("cap %d, %d events: counter total=%d dropped=%d len=%d, want %d/%d/0",
					capacity, n, ctr.Total(), ctr.Dropped(), ctr.Len(), ring.Total(), ring.Dropped())
			}
		}
	}
}

// Record must stay allocation-free wherever it does not grow the
// backing array: the scheduler calls it from its hot path, and each
// explain replay reuses its rings, so past the high-water mark —
// wrapping or dropping when full, or refilled after Reset — the cost
// must stay flat. The events go in as one loop per measured run so that
// a single allocation cannot round away; AllocsPerRun(1, f) calls f
// twice (a warm-up, then the measured run).
func TestRecorderRecordAllocFree(t *testing.T) {
	ev := Event{Kind: KindBalance, Op: OpPeriodicBalance}
	recordN := func(r *Recorder, n int) float64 {
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				r.Record(ev)
			}
		})
	}

	for _, full := range []*Recorder{NewDecisionRing(16), NewRecorder(16)} {
		full.Start()
		recordN(full, 8) // reach capacity
		if allocs := recordN(full, 100); allocs != 0 {
			t.Fatalf("Record on a full recorder allocates %.1f per 100 events, want 0", allocs)
		}
		full.Reset()
		if allocs := recordN(full, 100); allocs != 0 {
			t.Fatalf("Record after Reset allocates %.1f per 100 events, want 0", allocs)
		}
	}

	// A ring well below its capacity: after Reset, refilling up to the
	// high-water mark of its previous use reuses the backing array.
	partial := NewDecisionRing(DefaultRingCap)
	partial.Start()
	for i := 0; i < 1000; i++ {
		partial.Record(ev)
	}
	partial.Reset()
	if allocs := recordN(partial, 500); allocs != 0 {
		t.Fatalf("Record below the high-water mark allocates %.1f, want 0", allocs)
	}
}

// TestEventString pins the rendering of the four decision kinds: explain
// reports quote it in each first_divergence, so committed baselines
// depend on every byte.
func TestEventString(t *testing.T) {
	var mask Mask
	mask.Set(3)
	mask.Set(5)
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{At: 1500 * sim.Microsecond, Kind: KindBalance, Op: OpPeriodicBalance, Code: uint8(VerdictBalanced), CPU: 2, Arg: 7, Aux: 9, Mask: mask},
			"1.5ms balance[periodic] cpu2 balanced local=7 busiest=9 moved=0"},
		{Event{At: 2 * sim.Second, Kind: KindBalance, Op: OpNewIdleBalance, Code: uint8(VerdictMoved), CPU: 5, Arg: 1024, Aux: 3072, Dst: 2},
			"2s balance[newidle] cpu5 moved local=1024 busiest=3072 moved=2"},
		{Event{At: 999, Kind: KindBalance, Op: OpNohzBalance, Code: uint8(VerdictNoBusiest), Aux: -1},
			"999ns balance[nohz] cpu0 no-busiest local=0 busiest=-1 moved=0"},
		{Event{At: 42 * sim.Millisecond, Kind: KindStealReject, Op: OpPeriodicBalance, Code: uint8(VerdictPinned), CPU: 1, Dst: 9, Arg: 2048, Mask: mask},
			"42ms steal-reject cpu1 <- cpu9 pinned busiest=2048"},
		{Event{At: 43 * sim.Millisecond, Kind: KindStealReject, Op: OpNewIdleBalance, Code: uint8(VerdictHot), CPU: 4, Dst: 6, Arg: 100},
			"43ms steal-reject cpu4 <- cpu6 cache-hot busiest=100"},
		{Event{At: 1000, Kind: KindWakeup, Op: OpWakeup, Code: uint8(WakeFixed), CPU: 0, Dst: 4, Arg: 12, Aux: 1, Mask: mask},
			"1µs wakeup t12 cpu0 -> cpu4 path=fixed considered=2 busy-while-idle"},
		{Event{At: 7 * sim.Second, Kind: KindWakeup, Op: OpWakeup, Code: uint8(WakeOriginal), CPU: 3, Dst: 3, Arg: 8},
			"7s wakeup t8 cpu3 -> cpu3 path=original considered=0"},
		{Event{At: 77 * sim.Millisecond, Kind: KindWakeup, Op: OpWakeup, Code: uint8(WakePolicy), CPU: 1, Dst: 2, Arg: 5, Mask: mask},
			"77ms wakeup t5 cpu1 -> cpu2 path=policy considered=2"},
		{Event{At: 5 * sim.Millisecond, Kind: KindMigration, Op: OpHotplug, CPU: 63, Dst: 1, Arg: 7},
			"5ms migrate t7 cpu63 -> cpu1 cause=hotplug"},
		{Event{At: 6 * sim.Millisecond, Kind: KindMigration, Op: OpPeriodicBalance, CPU: 3, Dst: 1, Arg: 70},
			"6ms migrate t70 cpu3 -> cpu1 cause=periodic"},
	}
	for _, c := range cases {
		if got := c.ev.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if (Event{Kind: KindRQSize}).String() == "" {
		t.Error("empty String() for an rq-size event")
	}
}

// TestEventIs56Bytes pins the record's in-memory size: recorders hold
// up to millions of them.
func TestEventIs56Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 56 {
		t.Fatalf("Event is %d bytes, want 56", n)
	}
}

func TestMask(t *testing.T) {
	var m Mask
	m.Set(0)
	m.Set(63)
	m.Set(64)
	m.Set(127)
	for _, c := range []int{0, 63, 64, 127} {
		if !m.Has(c) {
			t.Fatalf("bit %d not set", c)
		}
	}
	if m.Has(1) || m.Has(65) {
		t.Fatal("unexpected bit set")
	}
	if m.Count() != 4 {
		t.Fatalf("Count = %d, want 4", m.Count())
	}
}

func TestKindOpStrings(t *testing.T) {
	kinds := []Kind{KindRQSize, KindRQLoad, KindConsidered, KindMigration, KindFork, KindExit,
		KindBalance, KindStealReject, KindWakeup, Kind(99)}
	seen := map[string]bool{}
	for _, k := range kinds {
		if k.String() == "" || seen[k.String()] {
			t.Fatalf("empty or repeated string %q for kind %d", k, k)
		}
		seen[k.String()] = true
	}
	ops := []Op{OpNone, OpPeriodicBalance, OpNewIdleBalance, OpNohzBalance, OpWakeup, OpFork, Op(99)}
	for _, o := range ops {
		if o.String() == "" {
			t.Fatalf("empty string for op %d", o)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	r.Start()
	var m Mask
	m.Set(5)
	m.Set(70)
	r.Record(Event{At: 123456, Kind: KindConsidered, Op: OpWakeup, CPU: 7, Arg: -3, Aux: 42, Mask: m})
	r.Record(Event{At: 999, Kind: KindMigration, CPU: 1, Dst: 2, Arg: 100})

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d events, want 2", len(got))
	}
	for i, want := range r.Events() {
		if got[i] != want {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("want error on truncated header")
	}
	bad := append([]byte("XXXX"), make([]byte, 12)...)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("want error on bad magic")
	}
	// Valid header claiming one event but no payload.
	hdr := []byte{'W', 'C', 'T', 'R', 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}
	if _, err := Read(bytes.NewReader(hdr)); err == nil {
		t.Fatal("want error on truncated body")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(ats []int64, cpus []uint16, args []int64) bool {
		n := len(ats)
		if len(cpus) < n {
			n = len(cpus)
		}
		if len(args) < n {
			n = len(args)
		}
		r := NewRecorder(n + 1)
		r.Start()
		for i := 0; i < n; i++ {
			at := ats[i]
			if at < 0 {
				at = -at
			}
			r.Record(Event{At: sim.Time(at), Kind: KindRQLoad, CPU: int32(cpus[i] % MaskBits), Arg: args[i]})
		}
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != r.Events()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
