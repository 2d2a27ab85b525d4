// Command benchjson converts `go test -bench` output into the repo's
// machine-readable benchmark artifact (BENCH_campaign.json) and gates
// allocs/op and B/op against a committed baseline.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -out BENCH_campaign.json
//
// Flags:
//
//	-in file          read benchmark output from a file instead of stdin
//	-reference file   prior benchmark output (text) or report (json):
//	                  embedded as the before column, with deltas. Without
//	                  it, a reference already present in the -out file is
//	                  carried forward, so regenerating the committed
//	                  trajectory keeps its curated before column.
//	-out file         write the JSON report here ("-" for stdout)
//	-baseline file    gate allocs/op and B/op against this committed
//	                  report; exit 3 when any pinned benchmark regresses
//	                  on either
//	-alloc-tolerance  allowed allocs/op and B/op growth percent
//	                  (default 10)
//	-max-allocs-per-event
//	                  gate allocs/op divided by the events/op metric on
//	                  every benchmark reporting one; exit 3 when the
//	                  ratio exceeds the bound (0 disables, the default)
//
// Exit codes: 0 on success, 1 on runtime/IO errors, 2 on usage errors,
// 3 when -baseline found an allocation regression — mirroring the
// campaign and bisect CLIs so CI can tell the cases apart.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/perf"
)

// cmd prefixes messages and exits with the shared codes.
const cmd cli.Cmd = "benchjson"

// loadAny reads a reference as either a JSON report or raw bench text.
func loadAny(path string) (*perf.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(strings.TrimSpace(string(data)), "{") {
		return perf.Load(path)
	}
	return perf.Parse(strings.NewReader(string(data)))
}

func main() {
	var (
		in        = flag.String("in", "", "benchmark output file (default stdin)")
		reference = flag.String("reference", "", "before-run benchmark output or report")
		out       = flag.String("out", "", "write the JSON report here (\"-\" for stdout)")
		baseline  = flag.String("baseline", "", "gate allocs/op and B/op against this report")
		allocTol  = flag.Float64("alloc-tolerance", 10, "allowed allocs/op and B/op growth percent")
		maxAPE    = flag.Float64("max-allocs-per-event", 0, "max allocs/op per events/op metric (0 disables)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		cmd.Usagef("unexpected arguments %q", flag.Args())
	}

	src := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			cmd.Fatalf("%v", err)
		}
		defer f.Close()
		src = f
	}
	rep, err := perf.Parse(src)
	if err != nil {
		cmd.Fatalf("%v", err)
	}
	if len(rep.Benchmarks) == 0 {
		cmd.Fatalf("no benchmark results found in input")
	}
	rep.ModelVersion = campaign.ModelVersion

	if *reference != "" {
		ref, err := loadAny(*reference)
		if err != nil {
			cmd.Fatalf("%v", err)
		}
		rep.SetReference(ref)
	} else if *out != "" && *out != "-" {
		// No explicit reference: carry the before column forward from a
		// prior report at the output path, so regenerating the committed
		// trajectory file refreshes the after-numbers without losing the
		// curated before/after record.
		if prev, err := perf.Load(*out); err == nil && len(prev.Reference) > 0 {
			rep.SetReference(&perf.Report{Benchmarks: prev.Reference})
		}
	}

	if *out != "" {
		data, err := rep.EncodeJSON()
		if err != nil {
			cmd.Fatalf("%v", err)
		}
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			cmd.Fatalf("%v", err)
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
		}
	}

	if *baseline != "" {
		base, err := perf.Load(*baseline)
		if err != nil {
			cmd.Fatalf("%v", err)
		}
		regs, matched := perf.CompareAllocs(base, rep, *allocTol)
		if matched == 0 {
			cmd.Fatalf("no benchmark in common with %s — the gate would be vacuous (baseline names: check for stale pins)", *baseline)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: allocations regressed beyond %.3g%% on %d pinned benchmark metrics:\n", *allocTol, len(regs))
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(cli.ExitRegression)
		}
		fmt.Fprintf(os.Stderr, "benchjson: allocs/op and B/op within %.3g%% of %s (%d benchmarks compared)\n", *allocTol, *baseline, matched)
	}

	if *maxAPE > 0 {
		var breaches []string
		checked := 0
		for _, b := range rep.Benchmarks {
			events, ok := b.Metrics["events/op"]
			if !ok || events <= 0 || b.AllocsPerOp == 0 {
				continue
			}
			checked++
			if ape := float64(b.AllocsPerOp) / events; ape > *maxAPE {
				breaches = append(breaches, fmt.Sprintf("%s: %.3f allocs/event (%d allocs/op over %.0f events/op)",
					b.Name, ape, b.AllocsPerOp, events))
			}
		}
		if checked == 0 {
			cmd.Fatalf("-max-allocs-per-event set but no benchmark reports an events/op metric")
		}
		if len(breaches) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: allocs per simulation event above %.3g on %d benchmarks:\n", *maxAPE, len(breaches))
			for _, s := range breaches {
				fmt.Fprintf(os.Stderr, "  %s\n", s)
			}
			os.Exit(cli.ExitRegression)
		}
		fmt.Fprintf(os.Stderr, "benchjson: allocs per event within %.3g (%d benchmarks checked)\n", *maxAPE, checked)
	}
}
