package obs

// This file implements Chrome trace-event (Perfetto) export: it merges
// the raw trace.Recorder event stream with registry counter tracks into
// the JSON array format understood by ui.perfetto.dev and
// chrome://tracing. The paper's authors had to write their own
// visualizer (§4.2) because no standard tool showed per-core scheduling
// state over time; exporting to the trace-event format gives every run
// that visualizer for free.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// Perfetto track layout. Synthetic pids group tracks into named
// "processes" in the UI; tids within a pid are individual tracks.
const (
	pidCores   = 1 // per-CPU busy/idle slices + decision instants
	pidRunq    = 2 // per-CPU runqueue depth / load counter tracks
	pidMetrics = 3 // registry series counter tracks
)

// pfEvent is one trace-event object. Ts and Dur are microseconds (the
// format's unit); we emit three decimal places, preserving nanosecond
// resolution.
type pfEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`  // instant scope
	ID   string         `json:"id,omitempty"` // flow id (ph "s"/"f"); start and end share it
	Bp   string         `json:"bp,omitempty"` // flow binding point ("e": enclosing slice)
	Args map[string]any `json:"args,omitempty"`
}

type pfFile struct {
	TraceEvents     []pfEvent `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// EpisodeMark anchors one episode on the timeline: an onset instant on
// the idle witness core's track, a detection instant where the checker
// (or streak witness) noticed, and a flow arrow joining the two — the
// onset-to-detection gap is the blind spot a periodic checker cannot
// avoid.
type EpisodeMark struct {
	// OnsetNs / DetectedNs are the episode's onset and detection instants.
	OnsetNs    int64
	DetectedNs int64
	// Kind is "checker" or "streak".
	Kind string
	// IdleCPU / BusyCPU witness a checker episode; -1 (streaks) anchors
	// the marks on the process track instead of a core track.
	IdleCPU int
	BusyCPU int
}

// PerfettoOpts tunes WritePerfetto.
type PerfettoOpts struct {
	// Cores fixes the number of CPU tracks; 0 infers it from the events.
	Cores int
	// MaxSeriesPoints caps counter points emitted per registry series
	// (0 = unlimited). Long runs at fine cadence can carry millions of
	// samples; the cap keeps export files loadable by thinning evenly.
	MaxSeriesPoints int
	// Episodes renders episode onset/detection marks (see EpisodeMark).
	Episodes []EpisodeMark
}

// WritePerfetto renders events (a trace.Recorder stream, time-ordered)
// and optional registry series as Chrome trace-event JSON:
//
//   - one slice track per CPU showing busy spans (derived from runqueue
//     size transitions) with instant markers for migrations, forks,
//     exits, balance verdicts (carrying the group metrics that decided
//     them) and steal rejections;
//   - wakeup placements as instants on the chosen core's track, with a
//     flow arrow from the previous core when the two differ;
//   - one counter track per CPU for runqueue depth and one for load;
//   - one counter track per registry series.
//
// Events must be in non-decreasing At order (the recorder appends in
// virtual-time order, so a recorder's Events() slice qualifies).
func WritePerfetto(w io.Writer, events []trace.Event, series []*Series, opt PerfettoOpts) error {
	cores := opt.Cores
	for _, ev := range events {
		cores = max(cores, int(ev.CPU)+1)
		if ev.Kind == trace.KindWakeup {
			cores = max(cores, int(ev.Dst)+1)
		}
	}
	var out []pfEvent

	// Track metadata: process and thread names, emitted first so the UI
	// labels tracks before any data arrives.
	meta := func(pid, tid int, key, name string) {
		out = append(out, pfEvent{Name: key, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	meta(pidCores, 0, "process_name", "scheduler cores")
	meta(pidRunq, 0, "process_name", "runqueues")
	for c := 0; c < cores; c++ {
		meta(pidCores, c+1, "thread_name", fmt.Sprintf("cpu %d", c))
	}
	if len(series) > 0 {
		meta(pidMetrics, 0, "process_name", "metrics")
	}

	// Busy slices: a core is busy while its runqueue size (which counts
	// the running thread) is non-zero. KindRQSize events carry the new
	// size in Arg; a 0->n transition opens a slice, n->0 closes it.
	busySince := make([]int64, cores)
	busy := make([]bool, cores)
	var end int64
	flowID := 0 // wakeup flow ids, sequential in event order
	for i := range events {
		ev := &events[i]
		at := int64(ev.At)
		if at > end {
			end = at
		}
		c := int(ev.CPU)
		switch ev.Kind {
		case trace.KindRQSize:
			nowBusy := ev.Arg > 0
			if nowBusy && !busy[c] {
				busy[c], busySince[c] = true, at
			} else if !nowBusy && busy[c] {
				busy[c] = false
				out = append(out, pfEvent{Name: "busy", Ph: "X", Cat: "cpu",
					Ts: usec(busySince[c]), Dur: usec(at - busySince[c]),
					Pid: pidCores, Tid: c + 1})
			}
			out = append(out, pfEvent{Name: fmt.Sprintf("runq depth cpu%02d", c), Ph: "C",
				Ts: usec(at), Pid: pidRunq, Tid: 0,
				Args: map[string]any{"threads": ev.Arg}})
		case trace.KindRQLoad:
			out = append(out, pfEvent{Name: fmt.Sprintf("runq load cpu%02d", c), Ph: "C",
				Ts: usec(at), Pid: pidRunq, Tid: 0,
				Args: map[string]any{"load": ev.Arg}})
		case trace.KindMigration:
			out = append(out, pfEvent{Name: fmt.Sprintf("migrate t%d -> cpu%d", ev.Arg, ev.Dst),
				Ph: "i", S: "t", Cat: "migration", Ts: usec(at), Pid: pidCores, Tid: c + 1})
		case trace.KindFork:
			out = append(out, pfEvent{Name: fmt.Sprintf("fork t%d", ev.Arg),
				Ph: "i", S: "t", Cat: "lifecycle", Ts: usec(at), Pid: pidCores, Tid: c + 1})
		case trace.KindExit:
			out = append(out, pfEvent{Name: fmt.Sprintf("exit t%d", ev.Arg),
				Ph: "i", S: "t", Cat: "lifecycle", Ts: usec(at), Pid: pidCores, Tid: c + 1})
		case trace.KindBalance:
			out = append(out, pfEvent{
				Name: "balance " + trace.Verdict(ev.Code).String(),
				Ph:   "i", S: "t", Cat: "balance", Ts: usec(at), Pid: pidCores, Tid: c + 1,
				Args: map[string]any{"op": ev.Op.String(), "local": ev.Arg, "busiest": ev.Aux,
					"moved": ev.Dst, "busiest_mask": maskHex(ev.Mask)}})
		case trace.KindStealReject:
			out = append(out, pfEvent{
				Name: "steal-reject " + trace.Verdict(ev.Code).String(),
				Ph:   "i", S: "t", Cat: "balance", Ts: usec(at), Pid: pidCores, Tid: c + 1,
				Args: map[string]any{"op": ev.Op.String(), "from_cpu": ev.Dst,
					"busiest": ev.Arg, "busiest_mask": maskHex(ev.Mask)}})
		case trace.KindWakeup:
			path := trace.WakePath(ev.Code).String()
			out = append(out, pfEvent{
				Name: fmt.Sprintf("wakeup t%d (%s)", ev.Arg, path),
				Ph:   "i", S: "t", Cat: "wakeup", Ts: usec(at), Pid: pidCores, Tid: int(ev.Dst) + 1,
				Args: map[string]any{"prev_cpu": ev.CPU, "chosen_cpu": ev.Dst, "path": path,
					"considered_mask": maskHex(ev.Mask), "busy_while_idle": ev.Aux != 0}})
			if ev.CPU != ev.Dst {
				flowID++
				fl := flow(flowID, fmt.Sprintf("wakeup t%d", ev.Arg), "wakeup-flow",
					usec(at), usec(at), c, int(ev.Dst))
				out = append(out, fl[0], fl[1])
			}
		}
	}
	// Close still-open busy slices at the last event time so the UI
	// doesn't show cores vanishing mid-run.
	for c := 0; c < cores; c++ {
		if busy[c] && end > busySince[c] {
			out = append(out, pfEvent{Name: "busy", Ph: "X", Cat: "cpu",
				Ts: usec(busySince[c]), Dur: usec(end - busySince[c]),
				Pid: pidCores, Tid: c + 1})
		}
	}

	out = append(out, episodeEvents(opt.Episodes)...)

	// Registry series become counter tracks under the metrics process.
	var buf []Sample
	for _, s := range series {
		buf = s.Samples(buf[:0])
		if len(buf) == 0 {
			continue
		}
		stride := 1
		if opt.MaxSeriesPoints > 0 && len(buf) > opt.MaxSeriesPoints {
			stride = (len(buf) + opt.MaxSeriesPoints - 1) / opt.MaxSeriesPoints
		}
		name := s.Name
		if s.CPU >= 0 {
			name = fmt.Sprintf("%s cpu%02d", s.Name, s.CPU)
		}
		for i := 0; i < len(buf); i += stride {
			out = append(out, pfEvent{Name: name, Ph: "C",
				Ts: usec(int64(buf[i].At)), Pid: pidMetrics, Tid: 0,
				Args: map[string]any{"value": buf[i].V}})
		}
	}

	// The format wants monotonic ts per track; slices were appended at
	// close time (end-ordered), so re-sort by (pid, tid, ts) with a
	// stable sort to keep same-timestamp order deterministic.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ph == "M" || b.Ph == "M" { // metadata first within a track
			return a.Ph == "M" && b.Ph != "M"
		}
		return a.Ts < b.Ts
	})

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(pfFile{TraceEvents: out, DisplayTimeUnit: "ns"}); err != nil {
		return err
	}
	return bw.Flush()
}

// flow emits a start/end flow-arrow pair between two core tracks at the
// given instants. The end binds to the enclosing slice (bp "e"), so in
// the UI the arrow lands on the destination core's busy span.
func flow(id int, name, cat string, fromTs, toTs float64, fromCPU, toCPU int) [2]pfEvent {
	sid := fmt.Sprintf("%d", id)
	return [2]pfEvent{
		{Name: name, Ph: "s", Cat: cat, ID: sid, Ts: fromTs, Pid: pidCores, Tid: fromCPU + 1},
		{Name: name, Ph: "f", Bp: "e", Cat: cat, ID: sid, Ts: toTs, Pid: pidCores, Tid: toCPU + 1},
	}
}

func maskHex(m trace.Mask) string { return fmt.Sprintf("%#x:%#x", m[1], m[0]) }

// episodeEvents renders episode marks: onset and detection instants plus
// a flow arrow spanning the detection lag. Checker episodes anchor on
// the idle witness core's track; streak episodes (no single witness
// core) anchor process-scoped on the cores process.
func episodeEvents(eps []EpisodeMark) []pfEvent {
	var out []pfEvent
	for i, em := range eps {
		tid, scope := 0, "p"
		if em.IdleCPU >= 0 {
			tid, scope = em.IdleCPU+1, "t"
		}
		args := map[string]any{"kind": em.Kind}
		if em.IdleCPU >= 0 {
			args["idle_cpu"] = em.IdleCPU
			args["busy_cpu"] = em.BusyCPU
		}
		out = append(out, pfEvent{Name: "episode onset (" + em.Kind + ")",
			Ph: "i", S: scope, Cat: "episode", Ts: usec(em.OnsetNs),
			Pid: pidCores, Tid: tid, Args: args})
		out = append(out, pfEvent{Name: "episode detected (" + em.Kind + ")",
			Ph: "i", S: scope, Cat: "episode", Ts: usec(em.DetectedNs),
			Pid: pidCores, Tid: tid, Args: args})
		if em.DetectedNs > em.OnsetNs && em.IdleCPU >= 0 {
			fl := flow(-(i + 1), "episode "+em.Kind, "episode-flow",
				usec(em.OnsetNs), usec(em.DetectedNs), em.IdleCPU, em.IdleCPU)
			out = append(out, fl[0], fl[1])
		}
	}
	return out
}
