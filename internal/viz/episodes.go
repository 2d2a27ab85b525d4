package viz

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Episode is one contiguous interval during which the work-conserving
// invariant was violated: at least one core idle while at least one
// runqueue held a waiting thread. Figure 3's story is the duration of
// these episodes — "the system eventually recovers from the load
// imbalance ... The question is, why does it take several milliseconds
// (or even seconds) to recover?" (§3.3).
type Episode struct {
	Start, End sim.Time
}

// Duration returns the episode length.
func (e Episode) Duration() sim.Time { return e.End - e.Start }

// Episodes reconstructs invariant-violation episodes from a trace's
// runqueue-size events. The trace must include a snapshot at its start
// (Scheduler.EmitSnapshot) for the initial occupancy to be correct.
func Episodes(events []trace.Event, ncores int, t0, t1 sim.Time) []Episode {
	nr := make([]int, ncores)
	idle := 0
	waiting := 0
	recount := func() {
		idle, waiting = 0, 0
		for _, n := range nr {
			if n == 0 {
				idle++
			}
			if n >= 2 {
				waiting += n - 1
			}
		}
	}
	recount()

	var episodes []Episode
	inViolation := false
	var start sim.Time
	update := func(at sim.Time) {
		violated := idle > 0 && waiting > 0
		if violated && !inViolation {
			inViolation = true
			start = at
		} else if !violated && inViolation {
			inViolation = false
			episodes = append(episodes, Episode{Start: start, End: at})
		}
	}
	for _, ev := range events {
		if ev.Kind != trace.KindRQSize || ev.At < t0 || ev.At > t1 {
			continue
		}
		core := int(ev.CPU)
		if core < 0 || core >= ncores {
			continue
		}
		nr[core] = int(ev.Arg)
		recount()
		update(ev.At)
	}
	if inViolation {
		episodes = append(episodes, Episode{Start: start, End: t1})
	}
	return episodes
}

// EpisodeStats summarizes violation episodes.
type EpisodeStats struct {
	Count       int
	Total       sim.Time
	Mean        sim.Time
	P50, P95    sim.Time
	Max         sim.Time
	WindowShare float64 // fraction of the window spent in violation
}

// AnalyzeEpisodes computes summary statistics over a window.
func AnalyzeEpisodes(episodes []Episode, window sim.Time) EpisodeStats {
	s := EpisodeStats{Count: len(episodes)}
	if len(episodes) == 0 {
		return s
	}
	durs := make([]float64, 0, len(episodes))
	for _, e := range episodes {
		s.Total += e.Duration()
		if e.Duration() > s.Max {
			s.Max = e.Duration()
		}
		durs = append(durs, float64(e.Duration()))
	}
	s.Mean = s.Total / sim.Time(len(episodes))
	slices.Sort(durs)
	s.P50 = sim.Time(stats.PercentileSorted(durs, 50))
	s.P95 = sim.Time(stats.PercentileSorted(durs, 95))
	if window > 0 {
		s.WindowShare = float64(s.Total) / float64(window)
	}
	return s
}

// String renders the stats.
func (s EpisodeStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "idle-while-overloaded episodes: %d (%.1f%% of the window)\n",
		s.Count, 100*s.WindowShare)
	if s.Count > 0 {
		fmt.Fprintf(&b, "  duration: mean=%v p50=%v p95=%v max=%v\n",
			s.Mean, s.P50, s.P95, s.Max)
	}
	return b.String()
}
