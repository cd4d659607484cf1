// Command wiotlint is the repo's custom multichecker: it runs the
// internal/analysis analyzers (opcomplete, detrand, spanend, qmisuse)
// over the module and exits nonzero on any finding — the correctness
// companion to golangci-lint's general-purpose set. It needs only the
// go toolchain: imports resolve through `go list -export` build-cache
// export data, so the tree must compile before it can be linted.
// Campaign declarations are checked by `wiotsim build -lint`, which
// runs campaign.Validate over the registered catalog.
//
// Usage:
//
//	wiotlint [-run name,name] [-list] [packages]
//
// Packages default to ./... . Findings print as
// file:line:col: analyzer: message. A finding is suppressed by a
// //wiotlint:allow <analyzer> comment on the same or preceding line.
//
// Exit codes:
//
//	0  no findings
//	1  findings reported
//	2  load or usage error (unbuildable tree, unknown analyzer, bad flag)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/wiot-security/sift/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("wiotlint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *runNames != "" {
		want := make(map[string]bool)
		for _, n := range strings.Split(*runNames, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				kept = append(kept, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(errOut, "wiotlint: unknown analyzer %q (use -list)\n", n)
			return 2
		}
		analyzers = kept
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := analysis.NewLoader(".")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(errOut, "wiotlint:", err)
		return 2
	}

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		ds, err := pkg.Run(analyzers...)
		if err != nil {
			fmt.Fprintln(errOut, "wiotlint:", err)
			return 2
		}
		diags = append(diags, ds...)
	}
	analysis.SortDiagnostics(diags)

	for _, d := range diags {
		fmt.Fprintln(out, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "wiotlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
