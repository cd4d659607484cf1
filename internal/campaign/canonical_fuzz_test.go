package campaign_test

import (
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/campaign"
	"github.com/wiot-security/sift/internal/campaign/catalog"
)

// FuzzParseCanonical feeds campaign text to ParseCanonical. It must never
// panic, and any text it accepts must reach a fixed point after one
// re-render: the campaign parsed back from its Canonical form renders the
// same text and has the same DeclDigest.
func FuzzParseCanonical(f *testing.F) {
	for _, c := range catalog.Catalog {
		text := c.Canonical()
		f.Add(text)
		// Variants the parser accepts but never renders: unknown keys,
		// a missing trailing newline, and a gap in the attack indices.
		f.Add(strings.TrimSuffix(text, "\n") + "\nextra=1")
		f.Add(strings.Replace(text, "attack[0].", "attack[1].", -1))
	}
	for _, text := range []string{
		"",
		"campaign/1",
		"campaign/1\nname=a=b\n",
		"campaign/1\ntopology.loss=NaN\n",
		"campaign/1\ncohort.trainsec=1e400\n",
		"campaign/1\nbudget.maxcycles=-1\n",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := campaign.ParseCanonical(text)
		if err != nil {
			return
		}
		first := c.Canonical()
		back, err := campaign.ParseCanonical(first)
		if err != nil {
			t.Fatalf("accepted text re-renders to text it refuses: %v\ntext:\n%q\nrendered:\n%q", err, text, first)
		}
		if again := back.Canonical(); again != first {
			t.Fatalf("no fixed point after one re-render:\n%q\nthen\n%q", first, again)
		}
		if back.DeclDigest() != c.DeclDigest() {
			t.Fatalf("DeclDigest moved on re-render: %s, then %s", c.DeclDigest(), back.DeclDigest())
		}
	})
}
