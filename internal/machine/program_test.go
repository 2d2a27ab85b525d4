package machine

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/topology"
)

// TestBuildExactSizeAndReset: Build copies the program out at exactly
// its length plus the Exit — no capacity rounded up by append — and a
// builder that is Reset and reused leaves the programs it already
// built untouched.
func TestBuildExactSizeAndReset(t *testing.T) {
	b := NewProgram()
	first := b.Compute(1).Sleep(2).Compute(3).Build()
	if len(first) != 4 || cap(first) != len(first) {
		t.Fatalf("first program: len %d cap %d, want 4/4", len(first), cap(first))
	}
	if first[3].Kind != OpExit {
		t.Fatalf("first program ends in %v, want exit", first[3].Kind)
	}
	want := append(Program(nil), first...)

	second := b.Reset().Sleep(9).Compute(8).Compute(7).Sleep(6).Compute(5).Build()
	if len(second) != 6 || cap(second) != len(second) {
		t.Fatalf("second program: len %d cap %d, want 6/6", len(second), cap(second))
	}
	if second[0] != (Instr{Kind: OpSleep, Dur: 9}) || second[5].Kind != OpExit {
		t.Fatalf("second program = %+v", second)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("building after Reset changed the first program at %d: %+v, want %+v", i, first[i], want[i])
		}
	}
}

// TestInstrIs32Bytes pins the instruction layout: Scripted sits in the
// padding after Kind, so the flag that keeps the NAS and make loops
// rolled costs no byte per instruction.
func TestInstrIs32Bytes(t *testing.T) {
	if s := unsafe.Sizeof(Instr{}); s != 32 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d, want 32", s)
	}
}

// TestBuilderRejectsInt32Overflow: counts, fan-outs and depths are
// int32 inside an Instr, so the builder must refuse a larger value
// rather than truncate it into a different program.
func TestBuilderRejectsInt32Overflow(t *testing.T) {
	var wide int64 = math.MaxInt32 + 1
	tooBig := int(wide)
	q := newM(topology.SMP(1)).NewWorkQueue()
	body := func(b *Builder) { b.Compute(1) }
	cases := []struct {
		name  string
		build func(n int)
	}{
		{"Repeat", func(n int) { NewProgram().Repeat(n, body) }},
		{"Push count", func(n int) { NewProgram().Push(q, n, 1) }},
		{"PushTree count", func(n int) { NewProgram().PushTree(q, n, 1, 1, 1) }},
		{"PushTree fanout", func(n int) { NewProgram().PushTree(q, 1, 1, n, 1) }},
		{"PushTree depth", func(n int) { NewProgram().PushTree(q, 1, 1, 1, n) }},
	}
	for _, c := range cases {
		c.build(math.MaxInt32) // the largest value that fits is accepted
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(%d) did not panic", c.name, tooBig)
				}
			}()
			c.build(tooBig)
		}()
	}
}
