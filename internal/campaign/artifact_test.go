package campaign_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bisect"
	"repro/internal/campaign"
	"repro/internal/tourney"
)

// baselines lists the committed artifacts matching pattern.
func baselines(tb testing.TB, pattern string) []string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "baselines", pattern))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no committed baselines match %s (%v)", pattern, err)
	}
	return paths
}

// TestBaselinesRoundTrip decodes every committed campaign, bisect and
// tourney baseline and re-encodes it to the same bytes, which pins the
// artifacts' JSON layout (the order and tags of the embedded Stamp's
// fields among them).
func TestBaselinesRoundTrip(t *testing.T) {
	type encoder interface{ EncodeJSON() ([]byte, error) }
	for _, kind := range []struct {
		pattern string
		load    func(path string) (encoder, error)
	}{
		{"campaign-*.json", func(p string) (encoder, error) { return campaign.Load(p) }},
		{"bisect-*.json", func(p string) (encoder, error) { return bisect.Load(p) }},
		{"tourney-*.json", func(p string) (encoder, error) { return tourney.Load(p) }},
	} {
		for _, path := range baselines(t, kind.pattern) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			a, err := kind.load(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s does not re-encode to its own bytes (%d bytes, want %d)", path, len(got), len(want))
			}
		}
	}
}

// FuzzDecode feeds campaign.Decode, the reader behind campaign's
// -baseline, -incremental and -merge, arbitrary bytes. It must not
// panic, and an accepted artifact must re-encode to bytes that decode
// and re-encode identically.
func FuzzDecode(f *testing.F) {
	for _, path := range baselines(f, "campaign-*.json") {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"results":[{"key":"k","extra":{"x":1e308}}]}`))
	f.Add([]byte(`{"version":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := campaign.Decode(data)
		if err != nil {
			return
		}
		enc, err := c.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted artifact does not encode: %v", err)
		}
		c2, err := campaign.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		enc2, err := c2.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable:\n%s\n---\n%s", enc, enc2)
		}
	})
}
