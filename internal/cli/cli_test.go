package cli

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestNumberRejectsNegativeAndNonFinite: -scale, -horizon, -workers and
// the other numeric flags refuse what would otherwise be simulated or
// stamped (a negative horizon, NaN scale) at parse time.
func TestNumberRejectsNegativeAndNonFinite(t *testing.T) {
	for _, in := range []string{"0", "2.5", "1e3", "-0"} {
		var v float64
		if err := (number[float64]{&v}).Set(in); err != nil {
			t.Errorf("float %q: unexpected error %v", in, err)
		}
	}
	for _, in := range []string{"-1", "-0.001", "NaN", "Inf", "+Inf", "-Inf", "1e400", "", "abc"} {
		v := 7.0
		if err := (number[float64]{&v}).Set(in); err == nil || v != 7 {
			t.Errorf("float %q: accepted (value %v)", in, v)
		}
	}
	for in, want := range map[string]int{"0": 0, "3": 3, "0x10": 16} {
		var v int
		if err := (number[int]{&v}).Set(in); err != nil || v != want {
			t.Errorf("int %q: got %d, %v; want %d", in, v, err, want)
		}
	}
	for _, in := range []string{"-1", "1.5", "NaN", "99999999999999999999"} {
		v := 7
		if err := (number[int]{&v}).Set(in); err == nil || v != 7 {
			t.Errorf("int %q: accepted (value %d)", in, v)
		}
	}
	// The zero value renders as the flag package's zero, so -h shows no
	// "(default 0)" for these flags.
	if s := (number[float64]{}).String(); s != "0" {
		t.Errorf("zero value String() = %q, want 0", s)
	}
}

// TestOverrides: the one parser of -topos, -loads, -seeds and the config
// dimension replaces exactly the named dimensions, and refuses unknown
// names, malformed seeds and entries given twice — including two names
// of one workload — before anything runs.
func TestOverrides(t *testing.T) {
	preset := campaign.SmokeMatrix()
	f := &Flags{topos: "bulldozer8", loads: "nas:cg, serve:50", seeds: "3,4"}
	m := preset
	if err := f.overrides(&m, "config", "bugs,fx-gi+oow"); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sc := range m.Scenarios() {
		got = append(got, sc.Key())
	}
	want := []string{
		"bulldozer8/nas:cg/bugs/s3", "bulldozer8/nas:cg/bugs/s4",
		"bulldozer8/nas:cg/fx-gi+oow/s3", "bulldozer8/nas:cg/fx-gi+oow/s4",
		"bulldozer8/serve:50/bugs/s3", "bulldozer8/serve:50/bugs/s4",
		"bulldozer8/serve:50/fx-gi+oow/s3", "bulldozer8/serve:50/fx-gi+oow/s4",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("scenarios = %v, want %v", got, want)
	}

	m = preset
	if err := (&Flags{}).overrides(&m, "config", ""); err != nil || m.Size() != preset.Size() {
		t.Errorf("no overrides: size %d, err %v; want the preset's %d", m.Size(), err, preset.Size())
	}

	for _, tc := range []struct {
		f       Flags
		configs string
		want    string
	}{
		{Flags{topos: "nope"}, "", `unknown topology "nope" (have: `},
		{Flags{loads: "nas:zz"}, "", "plus nas:<app>, nas-pin:<app>, nas-hotplug:<app>, nas-hotplug-storm:<app>:<cycles>, serve:<qps>"},
		{Flags{loads: "make2r,make2r"}, "", "workload make2r is given twice"},
		{Flags{loads: "serve:50,serve:050"}, "", "workload serve:50 is given twice"},
		{Flags{seeds: "1,01"}, "", "seed 1 is given twice"},
		{Flags{seeds: "1,x"}, "", `bad seed "x"`},
		{Flags{}, "bugs,bugs", "policy bugs is given twice"},
		{Flags{}, "fx-gc+gi", "plus fx-none and fx-<fix>[+<fix>...] with fixes gi, gc, oow, md in that order"},
	} {
		m := preset
		err := tc.f.overrides(&m, "policy", tc.configs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v configs=%q: got %v, want an error containing %q", tc.f, tc.configs, err, tc.want)
		}
	}
}

// FuzzOverrides drives the dimension-override parser with arbitrary
// -topos, -loads, -seeds and config lists. It must not panic, and an
// accepted input must leave no dimension holding one name twice: a
// repeated entry would repeat every scenario key it spans.
func FuzzOverrides(f *testing.F) {
	for _, in := range [][4]string{
		{"bulldozer8", "nas:cg, serve:50", "3,4", "bugs,fx-gi+oow"},
		{"", "", "", ""},
		{"nope", "make2r,make2r", "1,01", "bugs,bugs"},
		{"smp8,smp8", "serve:50,serve:050", "1,x", "fx-gc+gi"},
		{" ,machine32,, ", "nas-hotplug-storm:lu:4,nas-hotplug-storm:lu:04", "-1,+1", "fx-none,fx-gi"},
	} {
		f.Add(in[0], in[1], in[2], in[3])
	}
	f.Fuzz(func(t *testing.T, topos, loads, seeds, configs string) {
		m := campaign.SmokeMatrix()
		if err := (&Flags{topos: topos, loads: loads, seeds: seeds}).overrides(&m, "config", configs); err != nil {
			return
		}
		unique := func(dim string, names []string) {
			seen := map[string]bool{}
			for _, n := range names {
				if seen[n] {
					t.Fatalf("accepted %q %q %q %q: %s %s appears twice", topos, loads, seeds, configs, dim, n)
				}
				seen[n] = true
			}
		}
		var ts, ws, cs, ss []string
		for _, v := range m.Topologies {
			ts = append(ts, v.Name)
		}
		for _, v := range m.Workloads {
			ws = append(ws, v.Name)
		}
		for _, v := range m.Configs {
			cs = append(cs, v.Name)
		}
		for _, v := range m.Seeds {
			ss = append(ss, strconv.FormatInt(v, 10))
		}
		unique("topology", ts)
		unique("workload", ws)
		unique("config", cs)
		unique("seed", ss)
	})
}
