package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

// randomEvents generates n events with every field exercised across its
// valid range, deterministically from seed.
func randomEvents(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	ops := []Op{OpNone, OpPeriodicBalance, OpNewIdleBalance, OpNohzBalance, OpWakeup, OpFork}
	at := sim.Time(0)
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		at += sim.Time(rng.Int63n(int64(sim.Millisecond)))
		ev := Event{
			At:   at,
			Kind: Kind(rng.Intn(numKinds)),
			Op:   ops[rng.Intn(len(ops))],
			Code: uint8(rng.Intn(5)),
			CPU:  int32(rng.Intn(MaskBits)),
			Dst:  rng.Int31() - rng.Int31(),
			Arg:  rng.Int63() - rng.Int63(),
			Aux:  rng.Int63() - rng.Int63(),
		}
		if ev.Kind.dstIsCore() {
			ev.Dst = int32(rng.Intn(MaskBits))
		}
		for b := 0; b < rng.Intn(4); b++ {
			ev.Mask.Set(rng.Intn(MaskBits))
		}
		out = append(out, ev)
	}
	return out
}

// recordAll returns a started recorder of every kind holding events.
func recordAll(events []Event) *Recorder {
	rec := NewRecorderOf(len(events), SchedKinds|DecisionKinds)
	rec.Start()
	for _, ev := range events {
		rec.Record(ev)
	}
	return rec
}

// TestBinaryRoundTripProperty: WriteTo -> ReadMeta must reproduce every
// event bit for bit, plus the dropped count, across many random event
// populations.
func TestBinaryRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		events := randomEvents(seed, 200)
		rec := recordAll(events)
		// Overflow by three to give the file a dropped count.
		for i := 0; i < 3; i++ {
			rec.Record(Event{At: events[len(events)-1].At + 1})
		}
		var buf bytes.Buffer
		n, err := rec.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("seed %d: WriteTo reported %d bytes, wrote %d", seed, n, buf.Len())
		}
		got, meta, err := ReadMeta(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Version != fileVersion || meta.Dropped != 3 {
			t.Fatalf("seed %d: meta %+v, want version %d dropped 3", seed, meta, fileVersion)
		}
		if len(got) != len(events) {
			t.Fatalf("seed %d: %d events back, wrote %d", seed, len(got), len(events))
		}
		for i := range got {
			if got[i] != events[i] {
				t.Fatalf("seed %d event %d: got %+v, want %+v", seed, i, got[i], events[i])
			}
		}
	}
}

// legacyFile encodes events in the v1 or v2 format: 48-byte records
// without Dst, a migration's destination and a moved balance's count
// carried in Aux.
func legacyFile(version uint16, events []Event, dropped uint64) []byte {
	le := binary.LittleEndian
	b := append([]byte(fileMagic), 0, 0, 0, 0)
	le.PutUint16(b[4:], version)
	b = le.AppendUint64(b, uint64(len(events)))
	if version >= 2 {
		b = le.AppendUint64(b, dropped)
	}
	for _, ev := range events {
		b = le.AppendUint64(b, uint64(ev.At))
		b = append(b, byte(ev.Kind), byte(ev.Op), ev.Code, 0)
		b = le.AppendUint32(b, uint32(ev.CPU))
		b = le.AppendUint64(b, uint64(ev.Arg))
		b = le.AppendUint64(b, uint64(ev.Aux))
		b = le.AppendUint64(b, ev.Mask[0])
		b = le.AppendUint64(b, ev.Mask[1])
	}
	return b
}

// TestReadAcceptsV1 ensures the reader still parses the two formats
// written before v3: the 16-byte-header v1, written before the dropped
// count existed, and v2. Both carry a migration's destination and a
// moved balance's thread count in Aux, which must arrive in Dst.
func TestReadAcceptsV1(t *testing.T) {
	var m Mask
	m.Set(4)
	old := []Event{
		{At: 1, Kind: KindRQSize, CPU: 3, Arg: 2},
		{At: 2, Kind: KindMigration, Op: OpPeriodicBalance, CPU: 1, Arg: 7, Aux: 5},
		{At: 3, Kind: KindBalance, Op: OpNewIdleBalance, Code: uint8(VerdictMoved), CPU: 5, Arg: 900, Aux: 2, Mask: m},
		{At: 4, Kind: KindBalance, Op: OpPeriodicBalance, Code: uint8(VerdictBalanced), CPU: 5, Arg: 900, Aux: 800, Mask: m},
		{At: 5, Kind: KindConsidered, Op: OpWakeup, CPU: 127, Mask: m},
	}
	want := append([]Event(nil), old...)
	want[1].Dst, want[2].Dst = 5, 2
	for _, version := range []uint16{1, 2} {
		got, meta, err := ReadMeta(bytes.NewReader(legacyFile(version, old, 9)))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		wantDropped := uint64(9)
		if version == 1 {
			wantDropped = 0
		}
		if meta.Version != version || meta.Dropped != wantDropped {
			t.Fatalf("v%d: meta %+v, want dropped %d", version, meta, wantDropped)
		}
		if len(got) != len(want) {
			t.Fatalf("v%d: %d events back, wrote %d", version, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v%d event %d: got %+v, want %+v", version, i, got[i], want[i])
			}
		}
	}
}

// TestReadRejectsOutOfRange: a record of an unknown kind, or with a core
// outside [0, MaskBits), is an error naming the record — consumers
// index per-core state by those fields — in every format version.
func TestReadRejectsOutOfRange(t *testing.T) {
	ok := Event{At: 1, Kind: KindRQSize, CPU: 2, Arg: 1}
	cases := []struct {
		bad  Event
		want string
	}{
		{Event{At: 2, Kind: KindRQSize, CPU: -1, Arg: 1}, "event 1: rq-size cpu -1 outside [0,128)"},
		{Event{At: 2, Kind: KindRQSize, CPU: 2_000_000_000}, "event 1: rq-size cpu 2000000000 outside"},
		{Event{At: 2, Kind: KindConsidered, CPU: MaskBits}, "event 1: considered cpu 128 outside"},
		{Event{At: 2, Kind: KindMigration, CPU: 1, Dst: MaskBits}, "event 1: migration dst 128 outside"},
		{Event{At: 2, Kind: KindWakeup, CPU: 1, Dst: -3}, "event 1: wakeup dst -3 outside"},
		{Event{At: 2, Kind: KindStealReject, CPU: 1, Dst: 1 << 30}, "event 1: steal-reject dst 1073741824 outside"},
		{Event{At: 2, Kind: Kind(numKinds), CPU: 1}, "event 1: unknown kind 9"},
		{Event{At: 2, Kind: Kind(200), CPU: 1}, "event 1: unknown kind 200"},
	}
	for _, c := range cases {
		bad := c.bad
		if bad.Kind >= numKinds {
			bad.Kind = KindRQSize // no recorder keeps it; its kind byte is patched below
		}
		var buf bytes.Buffer
		if _, err := recordAll([]Event{ok, bad}).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		raw[24+recordSize+8] = byte(c.bad.Kind)
		_, _, err := ReadMeta(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want one containing %q", c.bad, err, c.want)
		}
	}
	// A v2 migration's destination travels in Aux: out of range there
	// too, however far.
	for _, aux := range []int64{MaskBits, -1, 1 << 40} {
		bad := Event{At: 2, Kind: KindMigration, CPU: 1, Aux: aux}
		_, _, err := ReadMeta(bytes.NewReader(legacyFile(2, []Event{ok, bad}, 0)))
		if err == nil || !strings.Contains(err.Error(), "event 1: migration dst") {
			t.Errorf("v2 migration aux %d: err = %v, want a dst range error", aux, err)
		}
	}
	// A dst that is a count, not a core, is not range-checked.
	moved := Event{At: 2, Kind: KindBalance, Code: uint8(VerdictMoved), CPU: 1, Dst: 1000}
	rec := recordAll([]Event{ok, moved})
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Errorf("moved count 1000 rejected: %v", err)
	}
}

// TestMaskSetGuard is the regression test for the 128-CPU limit: out of
// range bits must panic with a readable message instead of silently
// aliasing modulo the mask width.
func TestMaskSetGuard(t *testing.T) {
	var m Mask
	for _, c := range []int{0, 63, 64, MaskBits - 1} {
		m.Set(c)
		if !m.Has(c) {
			t.Fatalf("bit %d not set", c)
		}
	}
	for _, c := range []int{-1, MaskBits, MaskBits + 63, 1 << 20} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Set(%d) did not panic", c)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "out of Mask range") {
					t.Fatalf("Set(%d) panicked with %v, want a clear range message", c, r)
				}
			}()
			m.Set(c)
		}()
	}
}

// FuzzReadBinary: ReadMeta must never panic on arbitrary input — it
// either parses or returns an error — and every record it accepts is
// one consumers can index by: a known kind, a CPU in [0, MaskBits), and
// a Dst in that range wherever Dst names a core.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if _, err := recordAll(randomEvents(3, 8)).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:20])
	f.Add([]byte("WCTR"))
	f.Add([]byte{})
	f.Add(legacyFile(1, randomEvents(4, 3), 0))
	f.Add(legacyFile(2, randomEvents(5, 3), 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, _, err := ReadMeta(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, ev := range events {
			if ev.Kind >= numKinds || ev.CPU < 0 || ev.CPU >= MaskBits ||
				ev.Kind.dstIsCore() && (ev.Dst < 0 || ev.Dst >= MaskBits) {
				t.Fatalf("accepted out-of-range event %d: %+v", i, ev)
			}
		}
	})
}
