package shard

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// testMatrix mirrors the campaign package's smoke fixture: 8 scenarios,
// fast enough to run many times per test.
func testMatrix() campaign.Matrix {
	m := campaign.SmokeMatrix()
	m.Scale = 0.1
	return m
}

func testOpts() campaign.RunnerOpts {
	return campaign.RunnerOpts{Workers: 4, BaseSeed: 42}
}

func mustRun(t *testing.T, scs []campaign.Scenario, opts campaign.RunnerOpts) *campaign.Campaign {
	t.Helper()
	c, err := campaign.RunScenarios(scs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// planAndExecute plans scs against prior and executes the plan, as the
// sweep commands' -incremental does.
func planAndExecute(scs []campaign.Scenario, prior *campaign.Campaign, opts campaign.RunnerOpts) (*campaign.Campaign, *Diff, error) {
	d := Plan(scs, prior, opts)
	c, err := d.Execute(opts)
	return c, d, err
}

func encode(t *testing.T, c *campaign.Campaign) []byte {
	t.Helper()
	data, err := c.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    Spec
		wantErr bool
	}{
		{"1/3", Spec{1, 3}, false},
		{"3/3", Spec{3, 3}, false},
		{"1/1", Spec{1, 1}, false},
		{"0/3", Spec{}, true},
		{"4/3", Spec{}, true},
		{"1/0", Spec{}, true},
		{"x/3", Spec{}, true},
		{"13", Spec{}, true},
		{"", Spec{}, true},
	} {
		got, err := ParseSpec(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseSpec(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// FuzzParseSpec: ParseSpec never panics, every spec it accepts is in
// range, and String() of an accepted spec parses back to the same spec.
// The seeds are the malformed and out-of-range specs the CLIs must
// reject with exit 2 (make shard-usage), plus three valid ones.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"banana", "0/3", "4/3", "1/0", "-2/3", "1.5/3", "3", "a/b", "1/1", "2/3", " 2 / 3 "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		if sp.Index < 1 || sp.Index > sp.Count {
			t.Fatalf("ParseSpec(%q) accepted out-of-range %+v", s, sp)
		}
		back, err := ParseSpec(sp.String())
		if err != nil || back != sp {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q parses to %+v, %v", s, sp, sp.String(), back, err)
		}
	})
}

// TestSelectPartition: for several shard counts, the shards are a
// disjoint cover of the scenario list with balanced sizes, and the
// assignment ignores input order.
func TestSelectPartition(t *testing.T) {
	scs := testMatrix().Scenarios()
	for _, n := range []int{1, 2, 3, 5, len(scs), len(scs) + 3} {
		seen := map[string]int{}
		for i := 1; i <= n; i++ {
			part, err := Spec{i, n}.Select(scs)
			if err != nil {
				t.Fatal(err)
			}
			if len(part) > (len(scs)+n-1)/n {
				t.Errorf("n=%d shard %d oversized: %d scenarios", n, i, len(part))
			}
			for _, sc := range part {
				seen[sc.Key()]++
			}
		}
		if len(seen) != len(scs) {
			t.Fatalf("n=%d shards cover %d of %d scenarios", n, len(seen), len(scs))
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d scenario %s assigned %d times", n, k, c)
			}
		}
	}
	// Input order must not matter.
	shuffled := append([]campaign.Scenario(nil), scs...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, err := Spec{2, 3}.Select(scs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Spec{2, 3}.Select(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("shard size depends on input order: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("shard assignment depends on input order: %s vs %s", a[i].Key(), b[i].Key())
		}
	}
}

// TestMergeDeterminism is the tentpole guarantee: for n in {2,3,5},
// running the shards separately and merging their artifacts — in any
// order — reconstructs the single-process artifact byte for byte.
func TestMergeDeterminism(t *testing.T) {
	m := testMatrix()
	scs := m.Scenarios()
	opts := testOpts()
	want := encode(t, mustRun(t, scs, opts))

	for _, n := range []int{2, 3, 5} {
		parts := make([]*campaign.Campaign, n)
		for i := 1; i <= n; i++ {
			part, err := Spec{i, n}.Select(scs)
			if err != nil {
				t.Fatal(err)
			}
			parts[i-1] = mustRun(t, part, opts)
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) {
			parts[i], parts[j] = parts[j], parts[i]
		})
		merged, err := Merge(parts...)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := encode(t, merged); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: merged artifact differs from single-process run:\n--- merged ---\n%s\n--- single ---\n%s",
				n, got, want)
		}
	}
}

// TestMergeRejectsForeignParts: shards of different runs (base seed,
// checker lens, trace) refuse to merge, and overlapping shards are
// caught as duplicate keys.
func TestMergeRejectsForeignParts(t *testing.T) {
	scs := testMatrix().Scenarios()
	half, err := Spec{1, 2}.Select(scs)
	if err != nil {
		t.Fatal(err)
	}
	a := mustRun(t, half, testOpts())

	other := testOpts()
	other.BaseSeed = 7
	if _, err := Merge(a, mustRun(t, scs, other)); err == nil {
		t.Error("merge accepted parts with different base seeds")
	}
	traced := testOpts()
	traced.Trace = true
	if _, err := Merge(a, mustRun(t, scs, traced)); err == nil {
		t.Error("merge accepted parts with different trace settings")
	}
	streaked := testOpts()
	streaked.StreakK = 9
	if _, err := Merge(a, mustRun(t, scs, streaked)); err == nil {
		t.Error("merge accepted parts with different streak thresholds")
	}
	staleModel := mustRun(t, scs, testOpts())
	staleModel.ModelVersion = "0-pre-latency"
	if _, err := Merge(a, staleModel); err == nil {
		t.Error("merge accepted parts from different model versions")
	}
	if _, err := Merge(a, a); err == nil {
		t.Error("merge accepted overlapping shards")
	}
	if _, err := Merge(); err == nil {
		t.Error("merge accepted an empty part list")
	}
}

// TestIncrementalNoChanges: re-running against an unchanged prior
// executes zero scenarios and reproduces the artifact byte for byte.
func TestIncrementalNoChanges(t *testing.T) {
	scs := testMatrix().Scenarios()
	opts := testOpts()
	prior := mustRun(t, scs, opts)

	var executed atomic.Int64
	opts.OnResult = func(campaign.Result) { executed.Add(1) }
	c, d, err := planAndExecute(scs, prior, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n != 0 {
		t.Errorf("unchanged incremental re-run executed %d scenarios, want 0", n)
	}
	if len(d.ToRun) != 0 || len(d.Cached) != len(scs) || d.Invalidated != "" {
		t.Errorf("diff = %s, want all cached", d.Summary())
	}
	opts.OnResult = nil
	if !bytes.Equal(encode(t, c), encode(t, prior)) {
		t.Error("spliced artifact differs from prior")
	}
}

// TestIncrementalSpliceEqualsFullRun: against a prior that covers only
// part of the matrix, the incremental run executes exactly the missing
// scenarios and the spliced artifact is byte-identical to a full re-run;
// prior keys outside the list are dropped.
func TestIncrementalSpliceEqualsFullRun(t *testing.T) {
	m := testMatrix()
	scs := m.Scenarios()
	opts := testOpts()
	full := mustRun(t, scs, opts)

	// Prior: first shard of 2 only, plus everything from a wider matrix
	// (extra workload) that the current list no longer contains.
	wider := m
	wider.Workloads = campaign.MustWorkloads("make2r", "globalq", "tpch")
	prior := mustRun(t, wider.Scenarios(), opts)

	var executed atomic.Int64
	opts.OnResult = func(campaign.Result) { executed.Add(1) }
	c, d, err := planAndExecute(scs, prior, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n != 0 {
		t.Errorf("shrinking incremental run executed %d scenarios, want 0 (all cached)", n)
	}
	if want := 2 * 2 * 1; len(d.Removed) != want { // tpch on 2 topologies x 2 configs
		t.Errorf("removed = %v, want %d tpch keys", d.Removed, want)
	}
	opts.OnResult = nil
	if !bytes.Equal(encode(t, c), encode(t, full)) {
		t.Error("spliced artifact with dropped keys differs from full re-run")
	}

	// Prior covering only shard 1/2: the other shard executes.
	half, err := Spec{1, 2}.Select(scs)
	if err != nil {
		t.Fatal(err)
	}
	priorHalf := mustRun(t, half, opts)
	executed.Store(0)
	opts.OnResult = func(campaign.Result) { executed.Add(1) }
	c, d, err = planAndExecute(scs, priorHalf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); int(n) != len(scs)-len(half) {
		t.Errorf("executed %d scenarios, want %d", n, len(scs)-len(half))
	}
	if len(d.New) != len(scs)-len(half) || len(d.Cached) != len(half) {
		t.Errorf("diff = %s, want %d new / %d cached", d.Summary(), len(scs)-len(half), len(half))
	}
	opts.OnResult = nil
	if !bytes.Equal(encode(t, c), encode(t, full)) {
		t.Error("spliced artifact differs from full re-run")
	}
}

// TestIncrementalFingerprint: base-seed, checker-lens, trace, scale and
// horizon changes all invalidate the cache rather than splicing stale
// results, and the resulting artifacts still match full re-runs.
func TestIncrementalFingerprint(t *testing.T) {
	m := testMatrix()
	scs := m.Scenarios()
	prior := mustRun(t, scs, testOpts())

	t.Run("base-seed", func(t *testing.T) {
		opts := testOpts()
		opts.BaseSeed = 7
		// An invalidated prior still reports its dropped keys.
		wider := *prior
		wider.Results = append(append([]campaign.Result(nil), prior.Results...),
			campaign.Result{Key: "zzz/gone/bugs/s1", EngineSeed: 1})
		c, d, err := planAndExecute(scs, &wider, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d.Invalidated == "" || len(d.ToRun) != len(scs) || len(d.Cached) != 0 {
			t.Errorf("diff = %s, want full invalidation", d.Summary())
		}
		if len(d.Changed) != len(scs) || len(d.Removed) != 1 {
			t.Errorf("diff = %s, want %d changed and 1 removed", d.Summary(), len(scs))
		}
		if !bytes.Equal(encode(t, c), encode(t, mustRun(t, scs, opts))) {
			t.Error("invalidated incremental run differs from full run")
		}
	})
	t.Run("trace", func(t *testing.T) {
		opts := testOpts()
		opts.Trace = true
		_, d, err := planAndExecute(scs, prior, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d.Invalidated == "" || len(d.Cached) != 0 {
			t.Errorf("diff = %s, want full invalidation", d.Summary())
		}
	})
	t.Run("model-version", func(t *testing.T) {
		// The same-binary assumption, closed: an artifact stamped by an
		// older model — including the empty pre-stamp form — never
		// splices into a new run.
		stale := *prior
		stale.ModelVersion = "0-pre-latency"
		_, d, err := planAndExecute(scs, &stale, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		if d.Invalidated == "" || len(d.Cached) != 0 {
			t.Errorf("diff = %s, want full invalidation on model-version mismatch", d.Summary())
		}
		unstamped := *prior
		unstamped.ModelVersion = ""
		_, d, err = planAndExecute(scs, &unstamped, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		if d.Invalidated == "" || len(d.Cached) != 0 {
			t.Errorf("diff = %s, want full invalidation for a pre-stamp artifact", d.Summary())
		}
	})
	t.Run("streak-k", func(t *testing.T) {
		opts := testOpts()
		opts.StreakK = 9
		_, d, err := planAndExecute(scs, prior, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d.Invalidated == "" || len(d.Cached) != 0 {
			t.Errorf("diff = %s, want full invalidation on streak-threshold change", d.Summary())
		}
	})
	t.Run("checker-lens", func(t *testing.T) {
		opts := testOpts()
		opts.Checker.S = 20 * sim.Millisecond
		opts.Checker.M = 10 * sim.Millisecond
		_, d, err := planAndExecute(scs, prior, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d.Invalidated == "" || len(d.Cached) != 0 {
			t.Errorf("diff = %s, want full invalidation", d.Summary())
		}
	})
	t.Run("horizon", func(t *testing.T) {
		stretched := m
		stretched.Horizon = 150 * sim.Second
		sscs := stretched.Scenarios()
		opts := testOpts()
		c, d, err := planAndExecute(sscs, prior, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d.Invalidated != "" {
			t.Errorf("horizon change invalidated the whole artifact: %s", d.Invalidated)
		}
		if len(d.Changed) != len(sscs) || len(d.Cached) != 0 {
			t.Errorf("diff = %s, want every key changed", d.Summary())
		}
		if !bytes.Equal(encode(t, c), encode(t, mustRun(t, sscs, opts))) {
			t.Error("horizon-changed incremental run differs from full run")
		}
	})
	t.Run("scale", func(t *testing.T) {
		scaled := m
		scaled.Scale = 0.2
		sscs := scaled.Scenarios()
		opts := testOpts()
		c, d, err := planAndExecute(sscs, prior, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d.Invalidated != "" {
			t.Errorf("scale change invalidated the whole artifact: %s", d.Invalidated)
		}
		if len(d.Changed) != len(sscs) || len(d.Cached) != 0 {
			t.Errorf("diff = %s, want every key changed", d.Summary())
		}
		if !bytes.Equal(encode(t, c), encode(t, mustRun(t, sscs, opts))) {
			t.Error("scale-changed incremental run differs from full run")
		}
	})
}
