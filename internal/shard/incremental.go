package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/campaign"
)

// Diff is the plan of an incremental re-run: which scenarios of the
// requested list must execute and which prior results can be spliced.
//
// A prior result is reusable only when the scenario's whole execution
// fingerprint matches — the same derived engine seed (which covers the
// base seed and the scenario coordinates), the same scale and horizon,
// and the same campaign.Stamp, which holds the model version and every
// campaign-wide run setting. The model version
// (campaign.ModelVersion, bumped with every metric-visible change to
// the scheduler model or its instrumentation) is what closes the
// "same-binary assumption": an artifact produced by an older model —
// including any pre-stamp artifact — invalidates wholesale instead of
// silently splicing stale numbers. CI still gates the merged artifact
// against a stored baseline, because a stamp is a discipline, not a
// proof.
type Diff struct {
	// ToRun are the scenarios that must execute: new keys plus changed
	// ones, in input order.
	ToRun []campaign.Scenario
	// Cached are the prior results spliced for unchanged scenarios.
	Cached []campaign.Result
	// New, Changed and Removed classify the keys (sorted): absent from
	// the prior artifact; present but with a stale fingerprint (or the
	// whole artifact Invalidated); present in the prior artifact but no
	// longer in the scenario list (their results are dropped).
	New, Changed, Removed []string
	// Invalidated is non-empty when the prior's artifact version or
	// campaign.Stamp (scale and horizon aside, which are checked per
	// result) differs from this run's, making the whole prior artifact
	// unusable; every prior key is then Changed or Removed, and nothing
	// is Cached.
	Invalidated string

	// scenarios is the full requested list, kept so Execute assembles
	// the artifact with the same metadata stamp a full run would use.
	scenarios []campaign.Scenario
}

// Plan diffs the scenario list against a prior artifact under the given
// runner options. It never executes anything; Execute does.
func Plan(scenarios []campaign.Scenario, prior *campaign.Campaign, opts campaign.RunnerOpts) *Diff {
	d := &Diff{scenarios: scenarios}
	d.Invalidated = staleCampaign(prior, opts)

	priorByKey := map[string]*campaign.Result{}
	if prior != nil {
		for i := range prior.Results {
			priorByKey[prior.Results[i].Key] = &prior.Results[i]
		}
	}
	current := make(map[string]bool, len(scenarios))
	for _, sc := range scenarios {
		key := sc.Key()
		current[key] = true
		res, ok := priorByKey[key]
		switch {
		case !ok:
			d.New = append(d.New, key)
			d.ToRun = append(d.ToRun, sc)
		case d.Invalidated != "" || staleResult(res, sc, prior, opts):
			d.Changed = append(d.Changed, key)
			d.ToRun = append(d.ToRun, sc)
		default:
			d.Cached = append(d.Cached, *res)
		}
	}
	for key := range priorByKey {
		if !current[key] {
			d.Removed = append(d.Removed, key)
		}
	}
	sort.Strings(d.New)
	sort.Strings(d.Changed)
	sort.Strings(d.Removed)
	return d
}

// staleCampaign reports why the prior artifact is unusable as a cache
// under opts, or "" when it is usable.
func staleCampaign(prior *campaign.Campaign, opts campaign.RunnerOpts) string {
	switch {
	case prior == nil:
		return "no prior artifact"
	case prior.Version != campaign.Version:
		return fmt.Sprintf("artifact version %d, want %d", prior.Version, campaign.Version)
	}
	if d := prior.Stamp.Unscaled().Diff(opts.Stamp()); d != nil {
		return "stamp " + strings.Join(d, ", ")
	}
	return ""
}

// staleResult reports whether a prior result's per-scenario fingerprint
// no longer matches the scenario as it would run now.
func staleResult(res *campaign.Result, sc campaign.Scenario, prior *campaign.Campaign, opts campaign.RunnerOpts) bool {
	if res.EngineSeed != campaign.DeriveSeed(opts.BaseSeed, sc.CellKey(), sc.Seed) {
		return true
	}
	// The policy-version stamp joins the fingerprint per scenario:
	// a result is stale when its config's stamped version differs from
	// the version the scenario would run under now (including 0 vs
	// non-0: a policy gaining registration, or a stamp with no current
	// counterpart). Keying by the scenario's own config means
	// registering a *new* policy never invalidates unrelated cells.
	if prior.Policies[res.Config] != sc.Config.Version {
		return true
	}
	// Scale and horizon only exist campaign-wide in the artifact, and
	// only when they were uniform; a zero stamp means they are
	// unattested, so the cache cannot vouch for this result.
	if prior.ScaleMilli == 0 || prior.HorizonNs == 0 {
		return true
	}
	return prior.ScaleMilli != int64(math.Round(sc.Scale*1000)) || prior.HorizonNs != int64(sc.Horizon)
}

// Execute runs the plan's ToRun subset and splices the cached results.
// The artifact is byte-identical to a full RunScenarios over the
// planned scenario list (both assemble through
// campaign.AssembleArtifact, and cached results were produced under
// the same fingerprint); prior keys no longer in the list are dropped.
// opts must be the ones the plan was computed under.
func (d *Diff) Execute(opts campaign.RunnerOpts) (*campaign.Campaign, error) {
	return d.ExecuteCtx(context.Background(), opts)
}

// ExecuteCtx is Execute under a context: cancellation drains the
// in-flight scenarios and returns ctx.Err() instead of an artifact.
func (d *Diff) ExecuteCtx(ctx context.Context, opts campaign.RunnerOpts) (*campaign.Campaign, error) {
	fresh, err := campaign.RunScenariosCtx(ctx, d.ToRun, opts)
	if err != nil {
		return nil, err
	}
	combined := make([]campaign.Result, 0, len(d.Cached)+len(fresh.Results))
	combined = append(combined, d.Cached...)
	combined = append(combined, fresh.Results...)
	return campaign.AssembleArtifact(d.scenarios, combined, opts)
}

// Summary renders the diff in one line for progress reporting.
func (d *Diff) Summary() string {
	s := fmt.Sprintf("%d to run (%d new, %d changed), %d cached, %d removed",
		len(d.ToRun), len(d.New), len(d.Changed), len(d.Cached), len(d.Removed))
	if d.Invalidated != "" {
		s += fmt.Sprintf("; prior artifact invalidated: %s", d.Invalidated)
	}
	return s
}
