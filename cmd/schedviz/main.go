// Command schedviz renders a recorded scheduler trace as the paper's
// charts and reports (§4.2): runqueue-size heatmaps, load heatmaps,
// considered-cores plots, balance-decision summaries, and
// idle-while-overloaded episode analyses.
//
// Usage:
//
//	schedviz -trace FILE -cores N \
//	         [-mode size|load|considered|balance|episodes] \
//	         [-observer CPU] [-cols N] [-svg out.svg] \
//	         [-perfetto out.json]
//
// -perfetto converts the trace to Chrome trace-event JSON (per-CPU busy
// slices, runqueue-depth and load counter tracks, decision instants) for
// ui.perfetto.dev, instead of rendering a chart.
//
// Traces are produced with trace.Recorder.WriteTo (see the groupimbalance
// example, which writes one).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	traceFile := flag.String("trace", "", "binary trace file (required)")
	cores := flag.Int("cores", 64, "number of cores in the traced machine")
	mode := flag.String("mode", "size", "chart: size, load, or considered")
	observer := flag.Int("observer", 0, "observer core for considered mode")
	cols := flag.Int("cols", 160, "time buckets")
	svgOut := flag.String("svg", "", "also write the heatmap as SVG")
	perfetto := flag.String("perfetto", "", "write the trace as Perfetto/Chrome trace-event JSON and exit")
	flag.Parse()

	if *traceFile == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *cores < 1 || *cores > trace.MaskBits || *cols < 1 {
		fmt.Fprintf(os.Stderr, "schedviz: -cores must be in [1,%d] and -cols at least 1\n", trace.MaskBits)
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	events, meta, err := trace.ReadMeta(f)
	if err != nil {
		fatal(err)
	}
	if meta.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "schedviz: warning: recorder dropped %d events (capture buffer full); the trace has gaps\n",
			meta.Dropped)
	}
	if len(events) == 0 {
		fatal(fmt.Errorf("trace %s contains no events", *traceFile))
	}
	if *perfetto != "" {
		out, err := os.Create(*perfetto)
		if err != nil {
			fatal(err)
		}
		err = obs.WritePerfetto(out, events, nil, obs.PerfettoOpts{Cores: *cores})
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d events) — open at ui.perfetto.dev\n", *perfetto, len(events))
		return
	}
	t0, t1 := events[0].At, events[len(events)-1].At
	if t1 <= t0 {
		t1 = t0 + sim.Millisecond
	}

	var heat *viz.Heatmap
	switch *mode {
	case "size":
		heat = viz.RQSizeHeatmap(events, *cores, *cols, t0, t1)
	case "load":
		heat = viz.LoadHeatmap(events, *cores, *cols, t0, t1)
	case "considered":
		fmt.Print(viz.ConsideredChart(events, *observer, *cores, *cols))
		return
	case "balance":
		fmt.Print(viz.SummarizeBalance(events, -1))
		if msg, found := viz.DiagnoseGroupImbalance(events); found {
			fmt.Println(msg)
		}
		return
	case "episodes":
		eps := viz.Episodes(events, *cores, t0, t1)
		fmt.Print(viz.AnalyzeEpisodes(eps, t1-t0))
		return
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	fmt.Print(heat.ASCII(0))
	if *svgOut != "" {
		out, err := os.Create(*svgOut)
		if err != nil {
			fatal(err)
		}
		defer out.Close()
		if err := heat.SVG(out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "schedviz: %v\n", err)
	os.Exit(1)
}
