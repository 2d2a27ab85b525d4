package sched

import "testing"

// TestFeaturesStringRoundTrip: every one of the 16 fix sets renders in
// lattice order and parses back to itself, and ParseFeatures rejects
// unknown, repeated, empty and prefixed names.
func TestFeaturesStringRoundTrip(t *testing.T) {
	want := map[Features]string{
		0:                                     "none",
		FixGroupImbalance:                     "gi",
		FixGroupImbalance | FixOverloadWakeup: "gi+oow",
		AllFixes:                              "gi+gc+oow+md",
	}
	seen := map[string]bool{}
	for f := range AllFixes + 1 {
		s := f.String()
		if w, ok := want[f]; ok && s != w {
			t.Errorf("Features(%d).String() = %q, want %q", f, s, w)
		}
		if seen[s] {
			t.Errorf("Features(%d).String() = %q repeats another set's name", f, s)
		}
		seen[s] = true
		if got, ok := ParseFeatures(s); !ok || got != f {
			t.Errorf("ParseFeatures(%q) = %d, %v; want %d", s, got, ok, f)
		}
	}
	for i, fix := range Fixes {
		if fix != 1<<i {
			t.Errorf("Fixes[%d] = %d, want bit %d", i, fix, i)
		}
	}
	for _, bad := range []string{"gi+bogus", "gi+gi", "", "fx-gi", "gc+none"} {
		if f, ok := ParseFeatures(bad); ok {
			t.Errorf("ParseFeatures(%q) = %d, accepted", bad, f)
		}
	}
}

// TestProbeWatching: a nil probe watches nothing; an armed fix is
// watched until it fires; an unarmed fix is never watched.
func TestProbeWatching(t *testing.T) {
	var nilProbe *DivergenceProbe
	if nilProbe.Watching(FixGroupImbalance) {
		t.Error("nil probe watches gi")
	}
	p := &DivergenceProbe{Armed: FixGroupImbalance | FixMissingDomains}
	if !p.Watching(FixGroupImbalance) || !p.Watching(FixMissingDomains) {
		t.Error("armed, unfired fixes not watched")
	}
	if p.Watching(FixGroupConstruction) || p.Watching(FixOverloadWakeup) {
		t.Error("unarmed fixes watched")
	}
	p.Fired |= FixGroupImbalance
	if p.Watching(FixGroupImbalance) {
		t.Error("gi still watched after it fired")
	}
	if !p.Watching(FixMissingDomains) {
		t.Error("md no longer watched after gi fired")
	}
}
