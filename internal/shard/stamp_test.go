package shard

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestEveryStampFieldIsChecked perturbs each campaign.Stamp field on one
// side in turn. Merge must reject the pair, Plan must invalidate the
// prior, the encoded bytes must differ, and the baseline report must
// name the field's JSON key. Scale and horizon follow the uniformity
// rule instead: the merge zeroes them, and the plan re-runs every
// result without invalidating the prior. A new stamp field of a kind
// this test cannot perturb fails it until the test learns how.
func TestEveryStampFieldIsChecked(t *testing.T) {
	scs := testMatrix().Scenarios()
	opts := testOpts()
	base := mustRun(t, scs, opts)
	baseBytes := encode(t, base)
	half := len(base.Results) / 2

	st := reflect.TypeOf(campaign.Stamp{})
	for i := 0; i < st.NumField(); i++ {
		field := st.Field(i)
		key, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		t.Run(key, func(t *testing.T) {
			cur := *base
			v := reflect.ValueOf(&cur.Stamp).Elem().Field(i)
			switch v.Kind() {
			case reflect.String:
				v.SetString(v.String() + "-perturbed")
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			default:
				t.Fatalf("stamp field %s has kind %s; teach this test to perturb it", field.Name, v.Kind())
			}
			scaled := field.Name == "ScaleMilli" || field.Name == "HorizonNs"

			a, b := *base, cur
			a.Results, b.Results = base.Results[:half], base.Results[half:]
			merged, err := Merge(&a, &b)
			switch {
			case scaled && err != nil:
				t.Errorf("merge rejected parts differing only in %s: %v", key, err)
			case scaled && (merged.ScaleMilli != 0 || merged.HorizonNs != 0):
				t.Errorf("non-uniform %s merged to scale %d horizon %d, want both zeroed",
					key, merged.ScaleMilli, merged.HorizonNs)
			case !scaled && err == nil:
				t.Errorf("merge accepted parts differing in %s", key)
			}

			d := Plan(scs, &cur, opts)
			switch {
			case scaled && (d.Invalidated != "" || len(d.Changed) != len(scs) || len(d.Cached) != 0):
				t.Errorf("prior with another %s: %s, want every result changed and no invalidation", key, d.Summary())
			case !scaled && (d.Invalidated == "" || len(d.Cached) != 0):
				t.Errorf("prior with another %s: %s, want full invalidation", key, d.Summary())
			}

			curBytes := encode(t, &cur)
			if bytes.Equal(curBytes, baseBytes) {
				t.Fatalf("perturbing %s leaves the encoded bytes unchanged", key)
			}
			report, differs := campaign.BaselineReport("base.json", baseBytes, curBytes, base, &cur, "")
			if !differs || !strings.Contains(report, "stamp "+key+" ") {
				t.Errorf("baseline report does not name %s:\n%s", key, report)
			}
		})
	}
}
