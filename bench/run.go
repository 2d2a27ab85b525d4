package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/campaign"
)

// A run sets its workload up setUps times and reports the median as
// setup_s, so that no one set-up slowed by the host decides it.
const setUps = 3

// runConfig is one benchmark run of one workload.
type runConfig struct {
	seed    int64
	seconds time.Duration // how long the passes run, set-up excluded
	trace   bool
	reduced bool   // smoke-sized input (tests)
	ref     string // expected hex sha256 of every pass's output; "" = pass 1's
	dumpDir string // traced runs write spans and the CPU profile here; "" = nowhere
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	host string // unscaled times and the kernel's, for the log
}

// run sets the workload up, then runs passes back to back for
// cfg.seconds, and reports end-to-end metrics, with every time at the
// reference host speed (calibrate.go), or with cfg.trace the per-layer
// metrics. Each set-up ends with a warm-up pass, whose output is checked
// like every pass's and which counts as attempted. digest is the sha256
// of the first pass's output.
func run(w workload, cfg runConfig) (result, string, error) {
	chk := &refCheck{want: cfg.ref}
	hc := &hostClock{}
	inst, setup, warm, err := setUp(w, cfg, chk, hc)
	if err != nil {
		return result{}, "", fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	var res result
	if !cfg.trace {
		ph, passes := measure(inst, cfg.seconds, chk, hc)
		hc.calibrate()
		setupScaled, scaled := hc.scale(setup), hc.scale(passes)
		res = result{Attempted: len(ph.durs), Failed: ph.failed, Metrics: map[string]metric{
			"setup_s":           {median(setupScaled).Seconds(), "s"},
			"scenarios_per_s":   {float64(inst.scenarios*len(scaled)) / sum(scaled).Seconds(), "1/s"},
			"pass_p50_s":        {median(scaled).Seconds(), "s"},
			"alloc_mb_per_pass": {float64(ph.allocBytes) / 1e6 / float64(len(ph.durs)), "MB"},
		}}
		res.host = fmt.Sprintf("kernel median %v over %d calibrations (reference %v); unscaled: set-up %v, pass p50 %v",
			median(hc.kernels), len(hc.kernels), refKernel, median(durations(setup)), median(ph.durs))
	} else if res, err = traced(w, inst, cfg, chk); err != nil {
		return result{}, "", err
	}
	res.Attempted += len(warm.durs)
	res.Failed += warm.failed
	res.Correct = res.Failed == 0
	return res, chk.first, nil
}

// setUp sets the workload up setUps times and returns the last instance,
// every set-up's duration and the warm-up passes. A set-up builds the inputs and runs one warm-up
// pass on them, so that lazy work and the heap's growth to its working
// size are paid before timing and counted here. Each set-up starts on a
// collected heap: otherwise whether a collection of what earlier set-ups
// left runs during it would decide its time.
func setUp(w workload, cfg runConfig, chk *refCheck, hc *hostClock) (
	inst *instance, times []interval, warm phase, err error) {
	for len(times) < setUps {
		hc.tick()
		runtime.GC()
		start := time.Now()
		in, err := w.setup(cfg.seed, cfg.reduced)
		if err != nil {
			return nil, nil, warm, err
		}
		warm.step(in, nil, chk)
		times = append(times, hc.interval(time.Since(start)))
		inst = in
	}
	return inst, times, warm, nil
}

// refCheck compares each pass's output digest with the reference, or,
// without one, with the first pass's.
type refCheck struct {
	want  string
	first string
}

func (c *refCheck) ok(out []byte) bool {
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	if c.first == "" {
		c.first = got
	}
	if c.want == "" {
		c.want = got
	}
	return got == c.want
}

// phase accumulates passes.
type phase struct {
	durs       []time.Duration
	failed     int
	allocBytes uint64 // runtime.MemStats.TotalAlloc over the passes
	mallocs    uint64
	counts     counts // tracer-filtered, summed over the passes
}

// step runs one pass and times its program calls; the output check and
// the allocation counters are read outside the timed region.
func (ph *phase) step(inst *instance, tr *tracer, chk *refCheck) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var t0 int64
	if tr != nil {
		tr.beginPass()
		t0 = tr.now()
	}
	start := time.Now()
	out, sim, err := inst.pass(tr)
	d := time.Since(start)
	if tr != nil {
		tr.add(span{Name: "pass", Start: t0, End: tr.now()})
	}
	runtime.ReadMemStats(&after)
	ph.durs = append(ph.durs, d)
	ph.allocBytes += after.TotalAlloc - before.TotalAlloc
	ph.mallocs += after.Mallocs - before.Mallocs
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "bench: pass failed: %v\n", err)
		ph.failed++
	case !chk.ok(out):
		fmt.Fprintf(os.Stderr, "bench: pass output differs from the reference\n")
		ph.failed++
	}
	if tr != nil && sim != nil {
		ph.counts.add(sim, tr)
	}
}

// measure runs passes until starting another would likely overrun the
// budget; it always runs at least one. It also returns the pass times as
// intervals of hc.
func measure(inst *instance, budget time.Duration, chk *refCheck, hc *hostClock) (ph phase, passes []interval) {
	for start := time.Now(); len(ph.durs) == 0 || time.Since(start)+median(ph.durs) <= budget; {
		hc.tick()
		ph.step(inst, nil, chk)
		passes = append(passes, hc.interval(ph.durs[len(ph.durs)-1]))
	}
	return ph, passes
}

// traced runs the traced set. Untraced and traced passes alternate, so
// that drifts in host speed hit both alike and their ratio is the
// tracing overhead. Each traced pass records spans and its own CPU
// profile, started and stopped outside the timed region; a heap sampler
// runs throughout. The per-layer metrics come from the traced passes.
func traced(w workload, inst *instance, cfg runConfig, chk *refCheck) (result, error) {
	tr := newTracer()
	var plain, ph phase
	var profiles [][]byte
	var err error
	stopHeap := heapPeak()
	for start := time.Now(); len(ph.durs) == 0 ||
		time.Since(start)+median(plain.durs)+median(ph.durs) <= cfg.seconds; {
		// Alternate which kind goes first, so neither always inherits the
		// heap the other left behind.
		if len(ph.durs)%2 == 0 {
			plain.step(inst, nil, chk)
		}
		var prof bytes.Buffer
		if err = pprof.StartCPUProfile(&prof); err != nil {
			break
		}
		ph.step(inst, tr, chk)
		pprof.StopCPUProfile()
		profiles = append(profiles, prof.Bytes())
		if len(ph.durs)%2 == 0 {
			plain.step(inst, nil, chk)
		}
	}
	peak := stopHeap()
	if err != nil {
		return result{}, err
	}
	var samples []cpuSample
	for _, p := range profiles {
		s, err := parseProfile(p)
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s...)
	}
	if cfg.dumpDir != "" {
		dir := filepath.Join(cfg.dumpDir, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
		if err := dump(dir, tr.spans, profiles); err != nil {
			return result{}, err
		}
	}
	m := layerMetrics(attribute(samples), tr.spans, ph)
	n := float64(len(ph.durs))
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	put("sim.events_per_s", "1/s", float64(ph.counts.events)/n*float64(len(plain.durs))/sum(plain.durs).Seconds())
	put("runtime.peak_heap_mb", "MB", float64(peak)/1e6)
	put("runtime.allocs_per_event", "1/event", ratio(float64(ph.mallocs), float64(ph.counts.events)))
	put("trace.overhead_pct", "%", (median(ph.durs).Seconds()/median(plain.durs).Seconds()-1)*100)
	put("trace.passes", "count", n)
	return result{Attempted: len(plain.durs) + len(ph.durs), Failed: plain.failed + ph.failed, Metrics: m}, nil
}

// heapPeak samples the live heap every 10ms until the returned stop is
// called; stop waits for the sampler to exit and returns the peak bytes.
func heapPeak() (stop func() uint64) {
	quit := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var max uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-tick.C:
			case <-quit:
				peak <- max
				return
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-peak
	}
}

// dump replaces dir with the spans as JSON lines and each traced pass's
// CPU profile; `go tool pprof` merges the profiles it is given.
func dump(dir string, spans []span, profiles [][]byte) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.jsonl"), b.Bytes(), 0o644); err != nil {
		return err
	}
	for i, p := range profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%03d.pprof", i+1)), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// counts are the work the traced passes simulated, read from the
// artifacts: only results whose scenario this pass actually ran
// (Workload.Run was called) count, so lattice points the forked runner
// copied add nothing.
type counts struct {
	scenarios, simulated                     uint64
	balance, migrations, wakeups, switches   uint64
	events, checks, candidates, latencySamps uint64
	episodes, checkerEpisodes, replayEvents  uint64
	explainCandidates                        uint64
}

func (c *counts) add(sim *campaign.Campaign, tr *tracer) {
	c.scenarios += uint64(len(sim.Results))
	for i := range sim.Results {
		r := &sim.Results[i]
		if !tr.simulated(r.Key) {
			continue
		}
		c.simulated++
		c.balance += r.Counters.BalanceCalls
		c.migrations += r.Counters.Migrations
		c.wakeups += r.Counters.Wakeups
		c.switches += r.Counters.Switches
		c.events += r.Events
		c.checks += r.CheckerChecks
		c.candidates += r.CheckerCandidates
		if r.WakeLatency != nil {
			c.latencySamps += uint64(r.WakeLatency.Count)
		}
		if r.RunqWait != nil {
			c.latencySamps += uint64(r.RunqWait.Count)
		}
		if x := r.Explain; x != nil {
			c.explainCandidates += r.CheckerCandidates
			c.episodes += uint64(len(x.Episodes))
			c.checkerEpisodes += uint64(x.CheckerEpisodes)
			for _, ep := range x.Episodes {
				replay := ep.Control.Events
				for _, f := range ep.Fixes {
					replay += f.Events
				}
				c.replayEvents += replay
				c.events += replay
			}
		}
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func median[T ~int64 | ~float64](xs []T) T { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile[T ~int64 | ~float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + T(float64(s[i+1]-s[i])*(pos-float64(i)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
