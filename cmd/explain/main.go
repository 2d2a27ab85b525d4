// Command explain renders the causal-observability layer of a campaign
// or bisect artifact produced with -explain: per-episode counterfactual
// replay reports (which single fix erases each confirmed episode, the
// wasted-core and p99-wake deltas, and the first diverging provenance
// record) plus — for bisect artifacts — the per-cell cross-check of
// those attributions against the lattice's minimal fix sets.
//
// The distilled JSON report written by -out contains only the explain
// data (scenario explain blocks and cell explain checks, key-sorted),
// so it diffs cleanly across runs and serves as the committed rolling
// baseline for `make explain-smoke`.
//
// Usage:
//
//	explain -in artifact.json [flags]
//
// Examples:
//
//	bisect -preset smoke -explain -out bisect-explain.json
//	explain -in bisect-explain.json
//	explain -in bisect-explain.json -key bulldozer8/tpch/fx-none/s1
//	explain -in bisect-explain.json -out explain-smoke.json \
//	    -baseline baselines/explain-smoke.json -diff-out explain-smoke-diff.txt
//
// Flags:
//
//	-in file        campaign or bisect artifact with explain data (required)
//	-key key        only render/export this scenario key
//	-out file       write the distilled explain JSON here ("-" for stdout)
//	-baseline file  compare against a previous distilled report; exit 3
//	                on any difference
//	-diff-out file  also write the baseline comparison report to this file
//	-q              suppress the human-readable episode transcript
//
// Exit codes: 0 on success, 1 on runtime/IO errors, 2 on usage errors,
// 3 when -baseline found a difference.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bisect"
	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/explain"
)

// cmd prefixes messages and exits with the shared codes.
const cmd cli.Cmd = "explain"

// report is the distilled explain artifact: scenario explain blocks and
// (for bisect inputs) per-cell attribution cross-checks, both
// key-sorted because the source artifacts are.
type report struct {
	Version int    `json:"version"`
	Source  string `json:"source"` // "campaign" or "bisect"

	Scenarios []scenarioExplain `json:"scenarios"`
	Cells     []cellCheck       `json:"cells,omitempty"`
}

type scenarioExplain struct {
	Key     string                   `json:"key"`
	Explain *explain.ScenarioExplain `json:"explain"`
}

type cellCheck struct {
	Key   string               `json:"key"`
	Check *bisect.ExplainCheck `json:"explain_check"`
}

func main() {
	var (
		in       = flag.String("in", "", "campaign or bisect artifact with explain data")
		key      = flag.String("key", "", "only render/export this scenario key")
		out      = flag.String("out", "", "write the distilled explain JSON to this file (\"-\" for stdout)")
		baseline = flag.String("baseline", "", "compare against this distilled explain report")
		diffOut  = flag.String("diff-out", "", "write the baseline comparison report to this file")
		quiet    = flag.Bool("q", false, "suppress the human-readable episode transcript")
	)
	flag.Parse()
	if *in == "" {
		cmd.Usagef("-in is required (a campaign or bisect artifact produced with -explain)")
	}
	if flag.NArg() > 0 {
		cmd.Usagef("unexpected arguments %q", flag.Args())
	}

	rep := load(*in)
	if *key != "" {
		filterKey(rep, *key)
	}
	if len(rep.Scenarios) == 0 {
		if *key != "" {
			cmd.Fatalf("no scenario %q with explain data in %s", *key, *in)
		}
		cmd.Fatalf("%s carries no explain data; re-run the sweep with -explain", *in)
	}

	if !*quiet {
		render(os.Stdout, rep)
	}
	data, err := encode(rep)
	if err != nil {
		cmd.Fatalf("%v", err)
	}
	if *out != "" {
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			cmd.Fatalf("%v", err)
		} else {
			fmt.Fprintf(os.Stderr, "explain: wrote %s (%d bytes)\n", *out, len(data))
		}
	}
	if *baseline != "" {
		base, err := os.ReadFile(*baseline)
		if err != nil {
			cmd.Fatalf("%v", err)
		}
		diff := compare(base, data, *baseline)
		if *diffOut != "" {
			if err := os.WriteFile(*diffOut, []byte(diff), 0o644); err != nil {
				cmd.Fatalf("%v", err)
			}
		}
		if diff != "" {
			fmt.Print(diff)
			os.Exit(cli.ExitRegression)
		}
		fmt.Fprintf(os.Stderr, "explain: matches baseline %s\n", *baseline)
	}
}

// load reads the input artifact — a bisect report (tried first: a
// bisect report also parses as an empty campaign artifact) or a
// campaign artifact — and distills its explain data.
func load(path string) *report {
	if r, err := bisect.Load(path); err == nil {
		rep := &report{Version: 1, Source: "bisect"}
		fill(rep, r.Campaign)
		for i := range r.Cells {
			c := &r.Cells[i]
			if c.ExplainCheck != nil {
				rep.Cells = append(rep.Cells, cellCheck{Key: c.Key(), Check: c.ExplainCheck})
			}
		}
		return rep
	}
	c, err := campaign.Load(path)
	if err != nil {
		cmd.Fatalf("%v", err)
	}
	rep := &report{Version: 1, Source: "campaign"}
	fill(rep, c)
	return rep
}

func fill(rep *report, c *campaign.Campaign) {
	for i := range c.Results {
		r := &c.Results[i]
		if r.Explain != nil {
			rep.Scenarios = append(rep.Scenarios, scenarioExplain{Key: r.Key, Explain: r.Explain})
		}
	}
}

// filterKey narrows the report to one scenario key (and, for bisect
// inputs, the cells whose key prefixes it).
func filterKey(rep *report, key string) {
	var scs []scenarioExplain
	for _, s := range rep.Scenarios {
		if s.Key == key {
			scs = append(scs, s)
		}
	}
	rep.Scenarios = scs
	var cells []cellCheck
	for _, c := range rep.Cells {
		if matchesCell(key, c.Key) {
			cells = append(cells, c)
		}
	}
	rep.Cells = cells
}

// matchesCell reports whether scenario key "topo/load/config/sN"
// belongs to cell key "topo/load/sN" (the config dimension is the
// lattice, collapsed per cell).
func matchesCell(scenarioKey, cellKey string) bool {
	sp := strings.Split(scenarioKey, "/")
	cp := strings.Split(cellKey, "/")
	if len(sp) != 4 || len(cp) != 3 {
		return false
	}
	return sp[0] == cp[0] && sp[1] == cp[1] && sp[3] == cp[2]
}

func encode(rep *report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// render prints the human-readable transcript: per scenario, the
// episode replay reports; per cell, the attribution cross-check.
func render(w *os.File, rep *report) {
	for _, s := range rep.Scenarios {
		ex := s.Explain
		fmt.Fprintf(w, "%s: %d episodes (%d checker, %d streak), %d provenance records\n",
			s.Key, len(ex.Episodes), ex.CheckerEpisodes, ex.StreakEpisodes, ex.Decisions)
		if ex.SkippedEpisodes > 0 {
			fmt.Fprintf(w, "  %d episodes past the cap were not replayed\n", ex.SkippedEpisodes)
		}
		if ex.ForkUnavailable > 0 {
			fmt.Fprintf(w, "  %d episodes could not fork (observer attached)\n", ex.ForkUnavailable)
		}
		for i, ep := range ex.Episodes {
			explain.WriteEpisode(w, i, ep)
		}
	}
	for _, c := range rep.Cells {
		ck := c.Check
		verdict := "agrees with the lattice minimal sets"
		if !ck.AgreesWithMinimal {
			verdict = "does NOT cover the lattice minimal sets"
		}
		fmt.Fprintf(w, "%s: %d episodes replayed, %d attributed (checker: %s; streak: %s) — %s\n",
			c.Key, ck.Episodes, ck.Attributed,
			orNone(ck.CheckerFixes), orNone(ck.StreakFixes), verdict)
	}
}

func orNone(fixes []string) string {
	if len(fixes) == 0 {
		return "none"
	}
	return strings.Join(fixes, "+")
}

// compare diffs two distilled reports structurally, returning "" when
// identical. The diff names the keys that changed rather than dumping
// raw JSON, so a regression line is actionable on its own.
func compare(baseBytes, curBytes []byte, basePath string) string {
	if bytes.Equal(baseBytes, curBytes) {
		return ""
	}
	var base, cur report
	if err := json.Unmarshal(baseBytes, &base); err != nil {
		return fmt.Sprintf("explain: baseline %s is not a distilled explain report: %v\n", basePath, err)
	}
	if err := json.Unmarshal(curBytes, &cur); err != nil {
		return fmt.Sprintf("explain: current report unreadable: %v\n", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "explain: report differs from baseline %s\n", basePath)
	scenarioKey := func(s scenarioExplain) string { return s.Key }
	cellKey := func(c cellCheck) string { return c.Key }
	campaign.DiffKeyed(&b, "scenario", "explain data",
		campaign.KeyedJSON(base.Scenarios, scenarioKey), campaign.KeyedJSON(cur.Scenarios, scenarioKey))
	campaign.DiffKeyed(&b, "cell", "explain data",
		campaign.KeyedJSON(base.Cells, cellKey), campaign.KeyedJSON(cur.Cells, cellKey))
	return b.String()
}
