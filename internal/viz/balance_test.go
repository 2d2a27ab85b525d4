package viz

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func balanceEvent(cpu int, v trace.Verdict, local, busiest int64) trace.Event {
	return trace.Event{
		Kind: trace.KindBalance, Op: trace.OpPeriodicBalance,
		Code: uint8(v), CPU: int32(cpu), Arg: local, Aux: busiest,
	}
}

func TestSummarizeBalance(t *testing.T) {
	events := []trace.Event{
		balanceEvent(0, trace.VerdictBalanced, 500, 400),
		balanceEvent(0, trace.VerdictBalanced, 500, 450),
		{Kind: trace.KindBalance, Code: uint8(trace.VerdictMoved), Arg: 0, Aux: 700, Dst: 3},
		balanceEvent(1, trace.VerdictNoBusiest, 0, -1),
		{Kind: trace.KindRQSize}, // unrelated
	}
	s := SummarizeBalance(events, -1)
	if s.Total != 4 {
		t.Fatalf("total = %d", s.Total)
	}
	if s.ByVerdict[trace.VerdictBalanced] != 2 || s.ByVerdict[trace.VerdictMoved] != 1 {
		t.Fatalf("verdicts = %v", s.ByVerdict)
	}
	if s.Moved != 3 {
		t.Fatalf("moved = %d", s.Moved)
	}
	if len(s.BalancedSamples) != 2 || s.BalancedSamples[0] != [2]int64{500, 400} {
		t.Fatalf("samples = %v", s.BalancedSamples)
	}
	// Observer filter.
	s0 := SummarizeBalance(events, 0)
	if s0.Total != 3 {
		t.Fatalf("observer total = %d", s0.Total)
	}
	out := s.String()
	for _, want := range []string{"balanced", "moved", "local=500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestDiagnoseGroupImbalancePositive(t *testing.T) {
	var events []trace.Event
	for i := 0; i < 50; i++ {
		events = append(events, balanceEvent(0, trace.VerdictBalanced, 800, 300))
	}
	events = append(events, trace.Event{Kind: trace.KindRQSize, CPU: 5, Arg: 2})
	msg, found := DiagnoseGroupImbalance(events)
	if !found {
		t.Fatalf("signature not found: %s", msg)
	}
	if !strings.Contains(msg, "Group Imbalance") {
		t.Fatalf("message = %s", msg)
	}
}

func TestDiagnoseGroupImbalanceNegative(t *testing.T) {
	// Healthy trace: steals succeed and runqueues stay shallow.
	events := []trace.Event{
		balanceEvent(0, trace.VerdictMoved, 0, 2),
		balanceEvent(1, trace.VerdictMoved, 0, 1),
		balanceEvent(2, trace.VerdictBalanced, 100, 90),
		{Kind: trace.KindRQSize, CPU: 0, Arg: 1},
	}
	if _, found := DiagnoseGroupImbalance(events); found {
		t.Fatal("false positive on healthy trace")
	}
}

// TestVerdictStrings covers the enum.
func TestVerdictStrings(t *testing.T) {
	for v := trace.VerdictMoved; v <= trace.VerdictHot; v++ {
		if v.String() == "" {
			t.Fatalf("verdict %d has no name", v)
		}
	}
	if trace.Verdict(99).String() == "" {
		t.Fatal("unknown verdict should still render")
	}
}
