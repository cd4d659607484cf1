package analysis_test

import (
	"path/filepath"
	"testing"

	"github.com/wiot-security/sift/internal/analysis"
	"github.com/wiot-security/sift/internal/analysis/analysistest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestOpComplete(t *testing.T) {
	analysistest.Run(t, fixture("opcomplete"), analysis.OpComplete)
}

func TestDetRand(t *testing.T) {
	analysistest.Run(t, fixture("physio"), analysis.DetRand)
}

func TestDetRandChaos(t *testing.T) {
	analysistest.Run(t, fixture("chaos"), analysis.DetRand)
}

func TestDetRandShard(t *testing.T) {
	analysistest.Run(t, fixture("shard"), analysis.DetRand)
}

func TestDetRandJIT(t *testing.T) {
	analysistest.Run(t, fixture("jit"), analysis.DetRand, analysis.SpanEnd)
}

func TestDetRandCampaign(t *testing.T) {
	analysistest.Run(t, fixture("campaign"), analysis.DetRand)
}

func TestDetRandFederate(t *testing.T) {
	analysistest.Run(t, fixture("federate"), analysis.DetRand, analysis.SpanEnd)
}

func TestSpanEnd(t *testing.T) {
	analysistest.Run(t, fixture("spans"), analysis.SpanEnd)
}

func TestQMisuse(t *testing.T) {
	analysistest.Run(t, fixture("qarith"), analysis.QMisuse)
}

// TestAllOverFixtures runs the full analyzer set over each fixture: the
// wants in one fixture must hold when the other analyzers run too (no
// cross-analyzer false positives on the fixtures).
func TestAllOverFixtures(t *testing.T) {
	for _, name := range []string{
		"opcomplete", "physio", "chaos", "shard", "spans", "qarith",
		"jit", "campaign", "federate",
	} {
		t.Run(name, func(t *testing.T) {
			analysistest.Run(t, fixture(name), analysis.All()...)
		})
	}
}
