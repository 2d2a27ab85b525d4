// Command bench is the repository's end-to-end benchmark. It runs one
// sweep workload in a closed loop (one client running passes back to
// back) for a fixed time, checks every pass's output bytes, and prints
// its metrics, the last line as one JSON object. Run it from the
// repository root through run.sh, which builds it from source:
//
//	bash bench/run.sh --workload sweep-full --seed 42 --seconds 18 --trace 0
//	bash bench/run.sh --workload sweep-full --trace 1      # per-layer metrics
//	bash bench/run.sh --workload bisect-default --update-ref
//	bash bench/run.sh --compare parent.jsonl change.jsonl
//
// Exit codes: 0 on success, 1 when a pass failed or on runtime errors,
// 2 on usage errors, 3 when -compare found a regression.
//
// README.md describes the workloads, the metrics and their bounds.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const (
	exitFailed     = 1
	exitUsage      = 2
	exitRegression = 3
)

// refSeed is the seed the committed reference digests (ref/) and the
// committed baselines are made with.
const refSeed = 42

//go:embed ref/*.sha256
var refs embed.FS

// refDigest returns the committed output digest of a workload at
// refSeed, or "" when there is none.
func refDigest(name string) string {
	b, err := refs.ReadFile("ref/" + name + ".sha256")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(exitUsage)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(exitFailed)
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed      = flag.Int64("seed", refSeed, "campaign base seed the workload's inputs derive from")
		seconds   = flag.Float64("seconds", 18, "how long the passes run, set-up excluded")
		traceOn   = flag.Int("trace", 0, "1 runs the traced set and reports per-layer metrics instead of end-to-end ones")
		recordTo  = flag.String("record", "", "append the result, tagged with workload, seed and trace, to this JSON-lines file")
		updateRef = flag.Bool("update-ref", false, "rewrite bench/ref/<workload>.sha256 from this run (seed 42 only)")
		compare   = flag.Bool("compare", false, "compare two -record files: -compare parent.jsonl change.jsonl")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			usagef("-compare needs two record files: parent and change")
		}
		code, err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		os.Exit(code)
	}
	if flag.NArg() > 0 {
		usagef("unexpected arguments %q", flag.Args())
	}
	w, ok := workloadByName(*name)
	if !ok {
		usagef("unknown -workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	if *traceOn != 0 && *traceOn != 1 {
		usagef("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		usagef("-seconds must be positive")
	}
	if *updateRef && *seed != refSeed {
		usagef("-update-ref needs -seed %d, the seed of the committed baselines", refSeed)
	}

	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceOn == 1,
		dumpDir: filepath.Join(".bench_build", "trace"),
	}
	if *seed == refSeed && !*updateRef {
		cfg.ref = refDigest(w.name)
	}
	res, digest, err := run(w, cfg)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("%s seed %d: %d passes (%d of them untimed warm-ups in set-up), %d failed, output sha256 %s\n",
		w.name, *seed, res.Attempted, setUps, res.Failed, digest)
	if res.host != "" {
		fmt.Println("  host speed: " + res.host)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if *updateRef && res.Correct {
		path := filepath.Join("bench", "ref", w.name+".sha256")
		if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *recordTo != "" {
		if err := appendRecord(*recordTo, record{Workload: w.name, Seed: *seed, Trace: *traceOn, result: res}); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(exitFailed)
	}
}
