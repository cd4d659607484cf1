package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SpanEnd enforces the obs instrumentation discipline: every obs.Span
// produced by Timer.Start, Timer.StartChildOf or Span.Child must be
// ended, and ended via defer, in the function that started it. A span
// that never ends charges nothing to its timer (silently missing
// telemetry) and leaves an unmatched "B" event in any attached flight
// recorder, which Chrome trace viewers render as an interval stretching
// to the end of time; a non-deferred End skips recording on every early
// return and misattributes child time in the self/total accounting.
//
// Accepted shapes:
//
//	sp := timer.Start()
//	defer sp.End()
//
//	sp := timer.Start()
//	defer func() { ...; sp.End() }()
//
// (A fused defer timer.Start().End() cannot compile: obs.Span.End has a
// pointer receiver and the call result is not addressable.)
//
// A span value that escapes the function (returned, passed as an
// argument, stored in a composite or struct) is skipped — its lifetime
// is someone else's contract. Deliberate mid-function End calls are
// suppressed with //wiotlint:allow spanend at the start site.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "every obs.Span started must have a deferred End in the same function",
	Run:  runSpanEnd,
}

func runSpanEnd(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkSpansIn(pass, fn.Body)
		}
	}
	return nil
}

// checkSpansIn analyzes one function body (including nested literals —
// deferred closures are how spans usually end, and a literal's own spans
// are found by the recursive walk over the same body).
func checkSpansIn(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || len(n.Lhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isSpan(pass, call) {
				return true
			}
			ident, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if ident.Name == "_" {
				pass.Reportf(call.Pos(), "obs.Span assigned to _ is never ended: its time is never recorded")
				return true
			}
			obj := pass.Info.Defs[ident]
			if obj == nil {
				obj = pass.Info.Uses[ident]
			}
			if obj == nil {
				return true
			}
			checkSpanVar(pass, body, call, obj)
		}
		return true
	})
}

// checkSpanVar classifies how the span variable ends within the
// enclosing body.
func checkSpanVar(pass *Pass, body *ast.BlockStmt, creation *ast.CallExpr, span types.Object) {
	if escapes(pass, body, span) {
		return
	}
	deferred, ended := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// defer sp.End()
			if isEndCallOn(pass, n.Call, span) {
				deferred, ended = true, true
			}
			// defer func() { ...; sp.End() }()
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && isEndCallOn(pass, call, span) {
						deferred, ended = true, true
					}
					return true
				})
			}
		case *ast.CallExpr:
			if isEndCallOn(pass, n, span) {
				ended = true
			}
		}
		return true
	})
	switch {
	case !ended:
		pass.Reportf(creation.Pos(), "obs.Span %q is started but never ended in this function", span.Name())
	case !deferred:
		pass.Reportf(creation.Pos(), "obs.Span %q is ended but not via defer: early returns skip the End", span.Name())
	}
}

// isEndCallOn reports whether call is span.End() on the given variable.
func isEndCallOn(pass *Pass, call *ast.CallExpr, span types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	return ok && pass.Info.Uses[ident] == span
}

// escapes reports whether the span variable leaves the function: used as
// a call argument, returned, stored into a composite literal, assigned
// onward, or address-taken. Method calls on the span (End, Child,
// Running) are not escapes.
func escapes(pass *Pass, body *ast.BlockStmt, span types.Object) bool {
	leaked := false
	isSpanIdent := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && (pass.Info.Uses[id] == span || pass.Info.Defs[id] == span)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if isSpanIdent(arg) {
					leaked = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isSpanIdent(r) {
					leaked = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if isSpanIdent(e) {
					leaked = true
				}
			}
		case *ast.UnaryExpr:
			// &sp hands control of the span's lifetime away.
			if n.Op == token.AND && isSpanIdent(n.X) {
				leaked = true
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if isSpanIdent(r) {
					leaked = true
				}
			}
		}
		return true
	})
	return leaked
}

// isSpan reports whether the call's result is an obs.Span, the one
// lifetime the analyzer tracks.
func isSpan(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call]
	if !ok {
		return false
	}
	named := namedType(tv.Type)
	return named != nil && named.Obj().Pkg() != nil && named.Obj().Name() == "Span" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/obs")
}
