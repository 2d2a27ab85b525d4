// Package shard scales the campaign runner beyond one process: it
// partitions a scenario matrix into deterministic shards that separate
// processes (or machines) can run independently, merges the resulting
// shard artifacts back into the exact artifact a single process would
// have produced, and re-runs only the scenarios whose identity changed
// since a prior artifact, splicing cached results for the rest.
//
// All three operations lean on the campaign package's invariants:
//
//   - scenario keys name coordinates, never indices, and engine seeds
//     derive from (base seed, key), so *which process* runs a scenario
//     cannot influence its result;
//   - artifacts are key-sorted with campaign-level metadata stamped from
//     the scenario list, so concatenating shard results and re-sorting
//     reconstructs the single-process artifact byte for byte;
//   - bisect.Analyze is a pure function of the campaign artifact and
//     validates lattice completeness itself, so sharded lattice sweeps
//     re-analyze for free once merged.
//
// The partition is a stable key-ordered round-robin: scenarios are
// sorted by key and scenario i goes to shard i mod n. Any process that
// agrees on the scenario list and (index, count) computes the same
// shard, with no coordination — the property that makes `-shard i/n`
// reproducible across a CI matrix.
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/campaign"
)

// Spec names one shard of a partition: 1-based Index out of Count.
type Spec struct {
	Index, Count int
}

// ParseSpec parses the CLI form "i/n" (e.g. "2/3").
func ParseSpec(s string) (Spec, error) {
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return Spec{}, fmt.Errorf("shard: spec %q is not of the form i/n (two integers, e.g. \"2/3\")", s)
	}
	i, err1 := strconv.Atoi(strings.TrimSpace(idx))
	n, err2 := strconv.Atoi(strings.TrimSpace(cnt))
	if err1 != nil || err2 != nil {
		return Spec{}, fmt.Errorf("shard: spec %q is not of the form i/n (two integers, e.g. \"2/3\")", s)
	}
	sp := Spec{Index: i, Count: n}
	return sp, sp.validate()
}

func (s Spec) validate() error {
	if s.Count < 1 {
		return fmt.Errorf("shard: count %d must be >= 1 in spec \"i/n\"", s.Count)
	}
	if s.Index < 1 || s.Index > s.Count {
		return fmt.Errorf("shard: index %d outside 1..%d (shard specs are 1-based: \"1/%d\" is the first of %d)",
			s.Index, s.Count, max(s.Count, 1), max(s.Count, 1))
	}
	return nil
}

func (s Spec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Select returns this shard's scenarios: the full list is sorted by
// scenario key (input order is irrelevant, so differently-constructed
// but equal matrices partition identically) and assigned round-robin.
// The union of all Count shards is exactly the input; shards are
// disjoint; and shard sizes differ by at most one.
func (s Spec) Select(scenarios []campaign.Scenario) ([]campaign.Scenario, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	sorted := append([]campaign.Scenario(nil), scenarios...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key() < sorted[j].Key() })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Key() == sorted[i-1].Key() {
			return nil, fmt.Errorf("shard: duplicate scenario key %q", sorted[i].Key())
		}
	}
	var out []campaign.Scenario
	for i := s.Index - 1; i < len(sorted); i += s.Count {
		out = append(out, sorted[i])
	}
	return out, nil
}

// Merge reconstructs a single artifact from shard artifacts. The merged
// artifact is byte-identical to the one a single process running the
// whole scenario list would have produced, provided the parts really are
// a partition of one run: equal campaign.Stamp fields apart from scale
// and horizon (verified here) and disjoint keys (verified here). The
// model-version stamp is what approximates the "same binary"
// requirement: two processes at the same stamp are declared
// metric-compatible, a discipline enforced by bumping
// campaign.ModelVersion with every metric-visible model change.
//
// Scale and horizon stamps follow the campaign's uniformity rule: they
// survive the merge only when every non-empty part agrees, mirroring
// how a single process stamps them only when uniform across scenarios.
func Merge(parts ...*campaign.Campaign) (*campaign.Campaign, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: nothing to merge")
	}
	stamp := parts[0].Stamp.Unscaled()
	merged := &campaign.Campaign{Version: parts[0].Version, Stamp: stamp}
	scaleSet := false
	for i, p := range parts {
		if p.Version != campaign.Version {
			return nil, fmt.Errorf("shard: part %d has artifact version %d, want %d", i, p.Version, campaign.Version)
		}
		if d := stamp.Diff(p.Stamp.Unscaled()); d != nil {
			return nil, fmt.Errorf("shard: part %d differs from part 0 in %s — not shards of one run",
				i, strings.Join(d, ", "))
		}
		// Policy stamps must agree wherever they overlap: the same policy
		// name at two versions means the parts were built against
		// different policy registries (mirroring the ModelVersion check,
		// but per policy so shards running disjoint policy subsets still
		// merge). The union is what a single process over the whole
		// scenario list would have stamped.
		for name, v := range p.Policies {
			if have, ok := merged.Policies[name]; ok && have != v {
				return nil, fmt.Errorf("shard: part %d has policy %q at version %d, others version %d — built against different policy registries",
					i, name, v, have)
			}
			if merged.Policies == nil {
				merged.Policies = map[string]int{}
			}
			merged.Policies[name] = v
		}
		if len(p.Results) > 0 {
			if !scaleSet {
				merged.ScaleMilli, merged.HorizonNs = p.ScaleMilli, p.HorizonNs
				scaleSet = true
			} else if p.ScaleMilli != merged.ScaleMilli || p.HorizonNs != merged.HorizonNs {
				// Parts disagree, so the union is non-uniform: a single
				// process would have left both stamps zero.
				merged.ScaleMilli, merged.HorizonNs = 0, 0
			}
		}
		merged.Results = append(merged.Results, p.Results...)
	}
	if err := merged.Normalize(); err != nil {
		return nil, fmt.Errorf("%v (merged shards overlap?)", err)
	}
	return merged, nil
}

// MergeFiles loads campaign artifacts from paths and merges them.
func MergeFiles(paths ...string) (*campaign.Campaign, error) {
	parts := make([]*campaign.Campaign, 0, len(paths))
	for _, path := range paths {
		p, err := campaign.Load(path)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return Merge(parts...)
}
