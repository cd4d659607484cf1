// Package analysis is a self-contained, go/analysis-shaped static
// analysis framework plus the repo's custom analyzers. The real
// golang.org/x/tools/go/analysis module is deliberately not a
// dependency — the repo builds offline with a bare toolchain — so this
// package reimplements the small slice of it the analyzers need: an
// Analyzer/Pass pair over type-checked syntax, a loader that resolves
// imports through `go list -export` build-cache export data, and
// file-comment suppression (`//wiotlint:allow <analyzer>`).
//
// The analyzers guard invariants the compiler cannot see:
//
//   - opcomplete: switches and keyed literals marked
//     //wiotlint:exhaustive cover every exported constant of the
//     switched named type (the amulet ISA's opcode dispatch vs opCount);
//   - detrand: no wall-clock or process-global randomness in the
//     deterministic simulation packages (physio, fleet, experiments);
//   - spanend: every obs.Span produced by Timer.Start/Span.Child is
//     ended, via defer, on the function that started it;
//   - qmisuse: no raw * or / on two fixedpoint.Q values (the Q16.16
//     scale squares or cancels; fixedpoint.Mul/Div exist for this).
//
// cmd/wiotlint drives all of them over the module. Campaign
// declarations are not linted here: campaign.Validate is their one rule
// book, run by Synthesize before any work and over the whole registered
// catalog by `wiotsim build -lint`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static check. Mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the analyzers port
// mechanically if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in output and in
	// //wiotlint:allow <name> suppression comments.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run executes the check over one package and reports findings
	// through the pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a package's parsed, type-checked
// syntax and a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	pkg *Package
}

// A Diagnostic is one reported finding, positioned in the source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a //wiotlint:allow comment on
// the same or the preceding line suppresses this analyzer there.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.pkg.suppressedAt(position, p.Analyzer.Name) {
		return
	}
	p.pkg.diags = append(p.pkg.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is one loaded, type-checked package ready to analyze.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// suppress maps filename -> line -> analyzer names allowed there.
	suppress map[string]map[int][]string
	diags    []Diagnostic
}

var allowRe = regexp.MustCompile(`^//wiotlint:allow\s+([A-Za-z0-9_,\s]+)`)

// buildSuppressions indexes //wiotlint:allow comments by file and line.
// Only directive-form comments count (no space after //, marker first),
// so prose that merely mentions the marker is inert.
func (pkg *Package) buildSuppressions() {
	pkg.suppress = make(map[string]map[int][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := pkg.suppress[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					pkg.suppress[pos.Filename] = lines
				}
				for _, name := range strings.FieldsFunc(m[1], func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					lines[pos.Line] = append(lines[pos.Line], name)
				}
			}
		}
	}
}

// suppressedAt reports whether analyzer name is allowed at the position's
// line: a marker on the same line (trailing comment) or on the line
// directly above both count.
func (pkg *Package) suppressedAt(pos token.Position, name string) bool {
	lines := pkg.suppress[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, allowed := range lines[l] {
			if allowed == name {
				return true
			}
		}
	}
	return false
}

// Run executes the analyzers over the package and returns their findings
// sorted by position.
func (pkg *Package) Run(analyzers ...*Analyzer) ([]Diagnostic, error) {
	if pkg.suppress == nil {
		pkg.buildSuppressions()
	}
	pkg.diags = nil
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			pkg:      pkg,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
		}
	}
	SortDiagnostics(pkg.diags)
	return pkg.diags, nil
}

// SortDiagnostics orders findings by file, line, column, then analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns the repo's analyzers in stable order.
func All() []*Analyzer {
	return []*Analyzer{OpComplete, DetRand, SpanEnd, QMisuse}
}
