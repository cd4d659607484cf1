package campaign

import (
	"fmt"
	"sync"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/vmlint"
)

// Bounds is the statically proven per-window resource floor of one
// detector version's bytecode, as vmlint computes it. Cycles is the
// longest acyclic path through the program — a floor on any real run
// (loop back-edges only add cost) — and SRAMBytes is the proven peak
// footprint, so a declared Budget below either is unsatisfiable.
type Bounds struct {
	Cycles    uint64
	SRAMBytes int
}

var boundsCache sync.Map // features.Version -> Bounds

// StaticBounds builds the detector program for v and returns vmlint's
// static resource bounds, memoized per version. Campaign.Validate's
// (campbudget) rules compare declared budgets against it.
func StaticBounds(v features.Version) (Bounds, error) {
	if b, ok := boundsCache.Load(v); ok {
		return b.(Bounds), nil
	}
	p, err := program.Build(v)
	if err != nil {
		return Bounds{}, fmt.Errorf("campaign: build %s program: %w", v, err)
	}
	rep := vmlint.Analyze(p)
	if err := rep.Err(); err != nil {
		return Bounds{}, fmt.Errorf("campaign: %s program fails verification: %w", v, err)
	}
	b := Bounds{Cycles: rep.StaticCycles, SRAMBytes: rep.SRAMBytes()}
	boundsCache.Store(v, b)
	return b, nil
}
