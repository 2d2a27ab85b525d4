package obs

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestProvRingKeepsNewest(t *testing.T) {
	p := NewProvRing(4)
	for i := 0; i < 10; i++ {
		p.Record(ProvRecord{At: sim.Time(i), Kind: ProvWakeup, Arg: int64(i)})
	}
	if p.Total() != 10 {
		t.Fatalf("Total = %d, want 10", p.Total())
	}
	if p.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", p.Dropped())
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want 4", p.Len())
	}
	recs := p.Records(nil)
	for i, r := range recs {
		if want := int64(6 + i); r.Arg != want {
			t.Fatalf("record %d: Arg = %d, want %d (oldest-first, newest retained)", i, r.Arg, want)
		}
	}
	p.Reset()
	if p.Len() != 0 || p.Total() != 0 || p.Dropped() != 0 {
		t.Fatalf("Reset left state: len=%d total=%d dropped=%d", p.Len(), p.Total(), p.Dropped())
	}
}

func TestProvRingRecordsPartial(t *testing.T) {
	p := NewProvRing(8)
	p.Record(ProvRecord{At: 1})
	p.Record(ProvRecord{At: 2})
	recs := p.Records(nil)
	if len(recs) != 2 || recs[0].At != 1 || recs[1].At != 2 {
		t.Fatalf("partial ring order wrong: %+v", recs)
	}
}

// TestProvRingMatchesKeepLastN: a ring that grows on demand must be
// indistinguishable from a plain keep-last-N buffer — same Records,
// Total, Dropped and Len — at every record count on both sides of each
// growth step and of the wrap, fresh and after Reset. A counter of the
// same capacity must report the ring's Total and Dropped while keeping
// nothing and never allocating.
func TestProvRingMatchesKeepLastN(t *testing.T) {
	for _, capacity := range []int{1, 3, 256, 257, 1000} {
		p := NewProvRing(capacity)
		ctr := NewProvCounter(capacity)
		for n := 0; n <= 2*capacity+1; n++ {
			// Fresh for the first count, then reused: a dirty ring's
			// Reset must leave no trace of the previous count.
			p.Reset()
			var model []ProvRecord
			for i := 0; i < n; i++ {
				r := ProvRecord{At: sim.Time(i), Kind: ProvWakeup, Arg: int64(i)}
				p.Record(r)
				model = append(model, r)
			}
			dropped := max(n-capacity, 0)
			model = model[dropped:]
			got := p.Records(nil)
			if len(got) != len(model) {
				t.Fatalf("cap %d, %d records: Records has %d, want %d", capacity, n, len(got), len(model))
			}
			for i := range model {
				if got[i] != model[i] {
					t.Fatalf("cap %d, %d records: record %d = %+v, want %+v", capacity, n, i, got[i], model[i])
				}
			}
			if p.Total() != uint64(n) || p.Dropped() != uint64(dropped) || p.Len() != len(model) {
				t.Fatalf("cap %d, %d records: total=%d dropped=%d len=%d, want %d/%d/%d",
					capacity, n, p.Total(), p.Dropped(), p.Len(), n, dropped, len(model))
			}
			if c := cap(p.recs); c > capacity {
				t.Fatalf("cap %d, %d records: backing array holds %d records", capacity, n, c)
			}

			// AllocsPerRun runs the body twice; the Reset makes the
			// second, measured run end with n records offered.
			allocs := testing.AllocsPerRun(1, func() {
				ctr.Reset()
				for i := 0; i < n; i++ {
					ctr.Record(ProvRecord{At: sim.Time(i), Kind: ProvWakeup, Arg: int64(i)})
				}
			})
			if allocs != 0 {
				t.Fatalf("cap %d, %d records: counter Record allocates %.1f", capacity, n, allocs)
			}
			if ctr.Total() != p.Total() || ctr.Dropped() != p.Dropped() || ctr.Len() != 0 {
				t.Fatalf("cap %d, %d records: counter total=%d dropped=%d len=%d, want %d/%d/0",
					capacity, n, ctr.Total(), ctr.Dropped(), ctr.Len(), p.Total(), p.Dropped())
			}
		}
	}
}

// Record must stay allocation-free wherever it does not grow the ring:
// producers call it from the scheduler hot path with provenance
// enabled, and each explain replay reuses one ring per scenario, so
// past its high-water mark — wrapping when full, or refilled after
// Reset — the ring's cost must stay flat. The records go in as one
// loop per measured run so that a single allocation cannot round away;
// AllocsPerRun(1, f) calls f twice (a warm-up, then the measured run).
func TestProvRingRecordAllocFree(t *testing.T) {
	rec := ProvRecord{Kind: ProvBalance, Op: trace.OpPeriodicBalance}
	recordN := func(p *ProvRing, n int) float64 {
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				p.Record(rec)
			}
		})
	}

	full := NewProvRing(16)
	recordN(full, 8) // reach capacity
	if allocs := recordN(full, 100); allocs != 0 {
		t.Fatalf("Record on a full ring allocates %.1f per 100 records, want 0", allocs)
	}
	full.Reset()
	if allocs := recordN(full, 100); allocs != 0 {
		t.Fatalf("Record after Reset allocates %.1f per 100 records, want 0", allocs)
	}

	// A ring well below its capacity: after Reset, refilling up to the
	// high-water mark of its previous use reuses the backing array.
	partial := NewProvRing(DefaultProvCap)
	for i := 0; i < 1000; i++ {
		partial.Record(rec)
	}
	partial.Reset()
	if allocs := recordN(partial, 500); allocs != 0 {
		t.Fatalf("Record below the high-water mark allocates %.1f, want 0", allocs)
	}
}

func TestProvRecordString(t *testing.T) {
	var mask trace.Mask
	mask.Set(3)
	cases := []struct {
		r    ProvRecord
		want string
	}{
		{ProvRecord{At: 1000, Kind: ProvBalance, Op: trace.OpPeriodicBalance, CPU: 2, Arg: 7, Aux: 9, Dst: 1},
			""},
		{ProvRecord{At: 1000, Kind: ProvWakeup, CPU: 0, Dst: 4, Arg: 12, Aux: 1, Code: ProvWakeFixed, Mask: mask},
			""},
	}
	for _, c := range cases {
		if s := c.r.String(); s == "" {
			t.Fatalf("empty String() for %+v", c.r)
		}
	}
	if ProvStealReject.String() != "steal-reject" {
		t.Fatalf("kind string: %s", ProvStealReject)
	}
}
