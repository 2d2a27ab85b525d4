package viz

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// BalanceSummary aggregates KindBalance decisions into the §4.1 diagnosis
// report: per balancing path and verdict, how many calls there were and
// what metric values they compared. This is the view that exposed the
// Group Imbalance bug — hundreds of "balanced" verdicts with local metric
// >= busiest metric while cores sat idle.
type BalanceSummary struct {
	// Total is the number of balance decisions seen.
	Total int
	// ByVerdict counts decisions per verdict.
	ByVerdict map[trace.Verdict]int
	// BalancedSamples holds example (local, busiest) metric pairs for
	// VerdictBalanced decisions — the comparisons that refused to steal.
	BalancedSamples [][2]int64
	// Moved is the number of threads migrated in total.
	Moved int64
}

// SummarizeBalance builds a BalanceSummary from a trace, optionally
// restricted to one observer core (pass -1 for all cores).
func SummarizeBalance(events []trace.Event, observer int) *BalanceSummary {
	s := &BalanceSummary{ByVerdict: map[trace.Verdict]int{}}
	for _, ev := range events {
		if ev.Kind != trace.KindBalance {
			continue
		}
		if observer >= 0 && int(ev.CPU) != observer {
			continue
		}
		s.Total++
		v := trace.Verdict(ev.Code)
		s.ByVerdict[v]++
		switch v {
		case trace.VerdictBalanced:
			if len(s.BalancedSamples) < 16 {
				s.BalancedSamples = append(s.BalancedSamples, [2]int64{ev.Arg, ev.Aux})
			}
		case trace.VerdictMoved:
			s.Moved += int64(ev.Dst)
		}
	}
	return s
}

// String renders the report.
func (s *BalanceSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load-balance decisions: %d (threads moved: %d)\n", s.Total, s.Moved)
	verdicts := make([]trace.Verdict, 0, len(s.ByVerdict))
	for v := range s.ByVerdict {
		verdicts = append(verdicts, v)
	}
	sort.Slice(verdicts, func(i, j int) bool { return verdicts[i] < verdicts[j] })
	for _, v := range verdicts {
		fmt.Fprintf(&b, "  %-11s %d\n", v.String()+":", s.ByVerdict[v])
	}
	if len(s.BalancedSamples) > 0 {
		b.WriteString("  sample 'balanced' comparisons (local metric vs busiest metric):\n")
		for _, p := range s.BalancedSamples {
			fmt.Fprintf(&b, "    local=%-8d busiest=%d\n", p[0], p[1])
		}
	}
	return b.String()
}

// DiagnoseGroupImbalance inspects a trace for the Group Imbalance
// signature: repeated VerdictBalanced decisions whose local metric is
// inflated above the busiest group's while runqueue-size events show
// waiting threads. It returns a human-readable verdict and whether the
// signature was found.
func DiagnoseGroupImbalance(events []trace.Event) (string, bool) {
	sum := SummarizeBalance(events, -1)
	balanced := sum.ByVerdict[trace.VerdictBalanced]
	moved := sum.ByVerdict[trace.VerdictMoved]
	// Waiting threads present while balancing kept saying "balanced"?
	overloadedSeen := false
	for _, ev := range events {
		if ev.Kind == trace.KindRQSize && ev.Arg >= 2 {
			overloadedSeen = true
			break
		}
	}
	if balanced > 4*(moved+1) && overloadedSeen {
		return fmt.Sprintf(
			"Group Imbalance signature: %d 'balanced' verdicts vs %d steals while runqueues held waiting threads — "+
				"the group metric conceals idle cores (§3.1)", balanced, moved), true
	}
	return "no Group Imbalance signature", false
}
