package fleet

import (
	"errors"
	"sort"
)

// Accumulator folds SlotOutcomes into a FleetResult incrementally, in
// any arrival order. Every folded quantity is either a commutative sum
// or sorted at Result time, so a streamed merge (outcomes arriving from
// many stations as they finish) produces a result byte-identical to
// fleet.Run's index-ordered aggregation over the same slots. It retains
// no per-slot state: memory is O(subjects + errors), and a streamed
// accumulator (SkipSubjects) drops even the per-subject breakdown so a
// million-wearer run holds nothing beyond the pooled confusion totals.
// Not safe for concurrent use; callers fold from a single goroutine.
type Accumulator struct {
	scenarios     int
	trackSubjects bool
	observed      int

	r          FleetResult
	perSubject map[string]*SubjectOutcome
}

// NewAccumulator returns an accumulator for a fleet of the given slot
// count, tracking the per-subject breakdown.
func NewAccumulator(scenarios int) *Accumulator {
	return &Accumulator{
		scenarios:     scenarios,
		trackSubjects: true,
		perSubject:    map[string]*SubjectOutcome{},
	}
}

// SkipSubjects switches to streamed mode: the per-subject breakdown is
// not retained (Result's PerSubject stays nil), bounding memory for
// cohorts where every wearer is a distinct subject.
func (a *Accumulator) SkipSubjects() {
	a.trackSubjects = false
	a.perSubject = nil
}

// Observe folds one executed slot. Outcomes with Ran false are ignored
// (they are accounted as skipped at Result time).
func (a *Accumulator) Observe(o SlotOutcome) {
	if !o.Ran {
		return
	}
	a.observed++
	if o.Err != nil {
		a.r.Failed++
		var se ScenarioError
		if errors.As(o.Err, &se) {
			a.r.Errors = append(a.r.Errors, se)
		} else {
			a.r.Errors = append(a.r.Errors, ScenarioError{Index: o.Index, Err: o.Err})
		}
		return
	}
	a.r.Completed++
	a.r.Windows += o.Windows
	a.r.TruePos += o.TruePos
	a.r.FalseNeg += o.FalseNeg
	a.r.FalsePos += o.FalsePos
	a.r.TrueNeg += o.TrueNeg
	a.r.SeqErrors += o.SeqErrors
	if !a.trackSubjects {
		return
	}
	s := a.perSubject[o.Subject]
	if s == nil {
		s = &SubjectOutcome{Subject: o.Subject}
		a.perSubject[o.Subject] = s
	}
	s.Scenarios++
	s.Windows += o.Windows
	s.TruePos += o.TruePos
	s.FalseNeg += o.FalseNeg
	s.FalsePos += o.FalsePos
	s.TrueNeg += o.TrueNeg
	s.SeqErrors += o.SeqErrors
}

// Result finalizes the aggregate: slots never observed count as
// skipped, and the per-subject and error lists are sorted so the result
// is independent of arrival order. The accumulator may keep observing
// after a Result call (mid-run snapshots are allowed).
func (a *Accumulator) Result() FleetResult {
	r := a.r
	r.Scenarios = a.scenarios
	r.Skipped = a.scenarios - a.observed
	if a.trackSubjects && len(a.perSubject) > 0 {
		r.PerSubject = make([]SubjectOutcome, 0, len(a.perSubject))
		for _, s := range a.perSubject {
			r.PerSubject = append(r.PerSubject, *s)
		}
		sort.Slice(r.PerSubject, func(i, j int) bool { return r.PerSubject[i].Subject < r.PerSubject[j].Subject })
	}
	r.Errors = append([]ScenarioError(nil), a.r.Errors...)
	sort.Slice(r.Errors, func(i, j int) bool { return r.Errors[i].Index < r.Errors[j].Index })
	if len(r.Errors) == 0 {
		r.Errors = nil
	}
	return r
}
