// Package spans is a spanend fixture covering the accepted and rejected
// lifetimes of an obs.Span.
package spans

import "github.com/wiot-security/sift/internal/obs"

var timer = obs.NewTimer("fixture.spans")
var child = obs.NewTimer("fixture.spans.child")

// goodDeferred is the canonical shape.
func goodDeferred() {
	sp := timer.Start()
	defer sp.End()
	work()
}

// goodClosure ends the span inside a deferred closure.
func goodClosure() {
	sp := timer.Start()
	defer func() {
		work()
		sp.End()
	}()
	work()
}

// badNotDeferred ends the span on the straight-line path only.
func badNotDeferred() {
	sp := timer.Start() // want "ended but not via defer"
	work()
	sp.End()
}

// badNeverEnded starts a span and abandons it.
func badNeverEnded() {
	sp := timer.Start() // want "started but never ended"
	if sp.Running() {
		work()
	}
}

// badBlank discards the span at birth.
func badBlank() {
	_ = timer.Start() // want "assigned to _ is never ended"
	work()
}

// goodEscaping hands the span to someone else; its lifetime is their
// contract, not this function's.
func goodEscaping() {
	sp := timer.Start()
	keep(sp)
}

// goodSuppressed documents a deliberate mid-function End.
func goodSuppressed() {
	sp := timer.Start() //wiotlint:allow spanend
	work()
	sp.End()
}

// goodChild covers Span.Child, which also returns an obs.Span.
func goodChild() {
	sp := timer.Start()
	defer sp.End()
	cs := sp.Child(child)
	defer cs.End()
	work()
}

// goodDeferredChildOf opens the span after the defer that ends it, the
// shape of a connection span adopted partway through a read loop.
func goodDeferredChildOf(parent uint64) {
	var sp obs.Span
	defer sp.End()
	work()
	sp = timer.StartChildOf(parent)
	work()
}

func keep(obs.Span) {}

func work() {}
