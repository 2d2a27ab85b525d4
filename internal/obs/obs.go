// Package obs is the unified observability layer: a metrics registry
// whose instruments are sampled in virtual time on a fixed cadence into
// ring-buffered time series.
//
// The paper's core claim (§4) is that the wasted-cores bugs survived for
// years because standard tools aggregate away short idle-while-overloaded
// episodes — htop averages over seconds, sar over its sampling interval,
// and both hide a core that idles for tens of milliseconds while another
// queues threads. The registry attacks the same blind spot from the
// metrics side: instruments are read on a virtual-time cadence (default
// 10ms — finer than the episodes it must resolve), so a sampled series
// shows the dip instead of averaging it away, and because sampling runs
// on the deterministic simulation clock the resulting series — and the
// Snapshot summaries derived from them — are byte-stable across worker
// counts and runs.
//
// Design constraints inherited from the rest of the repo:
//
//   - zero allocations while sampling: every ring is preallocated at
//     registration, instruments are plain int64 cells, and the sampler
//     walks a pre-built slice — so an attached registry does not disturb
//     the allocation gates of the simulator hot path;
//   - disabled means a nil check: producers (sched, machine) guard their
//     hook sites with `if mx == nil`, exactly like the trace recorder and
//     latency probe, so campaigns with metrics off pay one predictable
//     branch;
//   - byte-stable snapshots: Snapshot sorts series by (name, cpu) and
//     summarizes with fixed integer fields, so a snapshot embedded in a
//     campaign artifact cannot leak worker count or map iteration order.
package obs

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Kind classifies how a series' samples are to be read.
type Kind uint8

const (
	// KindCounter samples are cumulative monotonic totals.
	KindCounter Kind = iota
	// KindGauge samples are instantaneous levels.
	KindGauge
)

// String names the kind.
func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Counter is a monotonically increasing instrument. Not safe for
// concurrent use: like the engine it observes, a registry belongs to one
// simulation goroutine.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds d.
func (c *Counter) Add(d int64) { c.v += d }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous-level instrument.
type Gauge struct{ v int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.v = v }

// Add adjusts the level by d.
func (g *Gauge) Add(d int64) { g.v += d }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// HistBuckets is the number of log2 buckets a Histogram carries: bucket
// i counts observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v <
// 2^i, with bucket 0 counting v <= 0. 64-bit values always fit.
const HistBuckets = 65

// Histogram is a log2-bucket histogram (the same fixed-bucket shape as
// internal/latency.Digest, generalized to any int64-valued observation).
// Observe is allocation-free.
type Histogram struct {
	count   int64
	sum     int64
	max     int64
	buckets [HistBuckets]int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sample is one (virtual time, value) point of a series.
type Sample struct {
	At sim.Time
	V  int64
}

// Series is one instrument's ring-buffered time series. The ring keeps
// the most recent cap(ring) samples; Total counts every sample taken.
type Series struct {
	// Name identifies the instrument ("sched/runq", "sim/events", ...).
	Name string
	// CPU scopes the series to a core, or -1 for machine-wide series.
	CPU int
	// Kind tells consumers whether samples are cumulative or levels.
	Kind Kind

	read  func() int64
	ring  []Sample // preallocated to ringCap; len grows to cap then wraps
	head  int      // next write position once the ring is full
	total int      // samples ever taken
}

// Total reports how many samples were ever taken (>= len(ring) once the
// ring has wrapped).
func (s *Series) Total() int { return s.total }

// Samples appends the retained samples to dst in time order and returns
// the extended slice. Pass a reused buffer to avoid allocation.
func (s *Series) Samples(dst []Sample) []Sample {
	if len(s.ring) < cap(s.ring) {
		return append(dst, s.ring...)
	}
	dst = append(dst, s.ring[s.head:]...)
	return append(dst, s.ring[:s.head]...)
}

func (s *Series) record(at sim.Time, v int64) {
	s.total++
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, Sample{At: at, V: v})
		return
	}
	s.ring[s.head] = Sample{At: at, V: v}
	s.head++
	if s.head == len(s.ring) {
		s.head = 0
	}
}

type histEntry struct {
	name string
	h    *Histogram
}

// Options tunes a Registry.
type Options struct {
	// Cadence is the virtual-time sampling interval (0 = 10ms). It must
	// be fine enough to resolve the episodes under study: the paper's
	// shortest confirmed idle-while-overloaded windows are tens of
	// milliseconds.
	Cadence sim.Time
	// RingCap bounds each series' retained samples (0 = 4096). Like the
	// trace recorder's static buffer, memory is bounded up front; older
	// samples are overwritten, never reallocated.
	RingCap int
}

// DefaultCadence is the sampling interval used when Options.Cadence is
// zero.
const DefaultCadence = 10 * sim.Millisecond

// DefaultRingCap is the per-series ring capacity used when
// Options.RingCap is zero.
const DefaultRingCap = 4096

func (o Options) withDefaults() Options {
	if o.Cadence <= 0 {
		o.Cadence = DefaultCadence
	}
	if o.RingCap <= 0 {
		o.RingCap = DefaultRingCap
	}
	return o
}

// Registry owns a simulation's instruments and samples them on a
// virtual-time cadence. It is bound to one engine and, like the engine,
// is not safe for concurrent use.
type Registry struct {
	eng    *sim.Engine
	opt    Options
	timer  *sim.Timer
	series []*Series
	hists  []histEntry
	rounds int
}

// NewRegistry creates a registry bound to eng. The engine's own health
// series (events processed, pending events, heap high-water) are
// registered immediately so every metrics-enabled run reports simulator
// load alongside scheduler state.
func NewRegistry(eng *sim.Engine, opt Options) *Registry {
	r := &Registry{eng: eng, opt: opt.withDefaults()}
	r.Sampled("sim/events", -1, KindCounter, func() int64 { return int64(eng.Processed()) })
	r.Sampled("sim/pending", -1, KindGauge, func() int64 { return int64(eng.Pending()) })
	r.Sampled("sim/heap_high_water", -1, KindGauge, func() int64 { return int64(eng.PendingHighWater()) })
	return r
}

// Cadence returns the resolved sampling interval.
func (r *Registry) Cadence() sim.Time { return r.opt.Cadence }

// Sampled registers a series whose value is read by fn at every sampling
// tick. cpu is -1 for machine-wide series. The returned Series is live;
// its ring fills as the simulation advances.
func (r *Registry) Sampled(name string, cpu int, kind Kind, fn func() int64) *Series {
	s := &Series{Name: name, CPU: cpu, Kind: kind, read: fn,
		ring: make([]Sample, 0, r.opt.RingCap)}
	r.series = append(r.series, s)
	return s
}

// Counter registers a hook-driven counter and a series sampling it.
func (r *Registry) Counter(name string, cpu int) *Counter {
	c := &Counter{}
	r.Sampled(name, cpu, KindCounter, c.Value)
	return c
}

// Gauge registers a hook-driven gauge and a series sampling it.
func (r *Registry) Gauge(name string, cpu int) *Gauge {
	g := &Gauge{}
	r.Sampled(name, cpu, KindGauge, g.Value)
	return g
}

// Histogram registers a named log2-bucket histogram. Histograms are not
// time series — they appear in snapshots only.
func (r *Registry) Histogram(name string) *Histogram {
	h := &Histogram{}
	r.hists = append(r.hists, histEntry{name: name, h: h})
	return h
}

// Start arms the sampling timer: the first sample is taken one cadence
// from now, then every cadence after. Sampling is allocation-free once
// the rings are warm (they are preallocated, so immediately).
func (r *Registry) Start() {
	if r.timer != nil {
		return
	}
	r.timer = r.eng.NewTimer(r.sample)
	r.timer.ResetAfter(r.opt.Cadence)
}

// Stop disarms the sampling timer; retained samples survive.
func (r *Registry) Stop() {
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
}

func (r *Registry) sample() {
	at := r.eng.Now()
	for _, s := range r.series {
		s.record(at, s.read())
	}
	r.rounds++
	r.timer.ResetAfter(r.opt.Cadence)
}

// Rounds reports how many sampling ticks have fired.
func (r *Registry) Rounds() int { return r.rounds }

// Series returns the registered series in registration order. The slice
// aliases internal storage and must not be modified.
func (r *Registry) Series() []*Series { return r.series }

// SeriesSnap summarizes one series for a snapshot: the retained window's
// last value, extrema and percentiles. Percentile fields are computed
// with internal/stats over the retained ring (the most recent RingCap
// samples), which for counters means percentiles of cumulative totals —
// consumers wanting rates should difference Last across snapshots.
type SeriesSnap struct {
	Name    string `json:"name"`
	CPU     int    `json:"cpu"`
	Kind    string `json:"kind"`
	Samples int    `json:"samples"` // total ever taken, not just retained
	Last    int64  `json:"last"`
	Min     int64  `json:"min"`
	Max     int64  `json:"max"`
	P50     int64  `json:"p50"`
	P95     int64  `json:"p95"`
	P99     int64  `json:"p99"`
}

// HistSnap summarizes one histogram: log2 buckets trimmed to the highest
// non-empty bucket.
type HistSnap struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot is the byte-stable summary of a registry: series sorted by
// (name, cpu), histograms in registration order. Encoding a snapshot
// with encoding/json yields identical bytes for identical simulations
// regardless of worker count — it holds no maps, no floats and no
// wall-clock state.
type Snapshot struct {
	CadenceNs int64        `json:"cadence_ns"`
	Rounds    int          `json:"rounds"`
	Series    []SeriesSnap `json:"series,omitempty"`
	Hists     []HistSnap   `json:"hists,omitempty"`
}

// Snapshot summarizes the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{CadenceNs: int64(r.opt.Cadence), Rounds: r.rounds}
	var buf []Sample
	vals := make([]float64, 0, r.opt.RingCap)
	for _, s := range r.series {
		buf = s.Samples(buf[:0])
		ss := SeriesSnap{Name: s.Name, CPU: s.CPU, Kind: s.Kind.String(), Samples: s.total}
		if len(buf) > 0 {
			ss.Last = buf[len(buf)-1].V
			ss.Min, ss.Max = buf[0].V, buf[0].V
			vals = vals[:0]
			for _, p := range buf {
				if p.V < ss.Min {
					ss.Min = p.V
				}
				if p.V > ss.Max {
					ss.Max = p.V
				}
				vals = append(vals, float64(p.V))
			}
			slices.Sort(vals)
			ss.P50 = int64(stats.PercentileSorted(vals, 50))
			ss.P95 = int64(stats.PercentileSorted(vals, 95))
			ss.P99 = int64(stats.PercentileSorted(vals, 99))
		}
		snap.Series = append(snap.Series, ss)
	}
	sort.Slice(snap.Series, func(i, j int) bool {
		a, b := snap.Series[i], snap.Series[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.CPU < b.CPU
	})
	for _, e := range r.hists {
		hs := HistSnap{Name: e.name, Count: e.h.count, Sum: e.h.sum, Max: e.h.max}
		top := -1
		for i, n := range e.h.buckets {
			if n != 0 {
				top = i
			}
		}
		if top >= 0 {
			hs.Buckets = append([]int64(nil), e.h.buckets[:top+1]...)
		}
		snap.Hists = append(snap.Hists, hs)
	}
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })
	return snap
}
