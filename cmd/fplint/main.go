// Command fplint runs the repository's custom static-analysis suite
// (internal/lint): determinism, hotpath, faulterr, snapmeta,
// workershare, and allocbudget, over the whole program at once so the
// hotpath and workershare call graphs span package boundaries and
// allocbudget can run the compiler's escape analysis.
//
//	fplint ./...            # from the module root
//	fplint -C dir ./...     # resolve patterns in another module
//	fplint -list            # name the analyzers
//
// An //fplint:ignore directive that suppresses nothing is itself a
// finding. Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"fpcache/internal/lint"
	"fpcache/internal/lint/allocbudget"
	"fpcache/internal/lint/determinism"
	"fpcache/internal/lint/faulterr"
	"fpcache/internal/lint/hotpath"
	"fpcache/internal/lint/snapmeta"
	"fpcache/internal/lint/workershare"
)

// scopes restricts analyzers to the packages whose contracts they
// enforce; analyzers without an entry run everywhere. The lists mirror
// DESIGN.md §12.
var scopes = map[string][]string{
	"determinism": {
		"fpcache/internal/system",
		"fpcache/internal/experiments",
		"fpcache/internal/sweep",
		"fpcache/internal/dcache",
		"fpcache/internal/stats",
		"fpcache/internal/control",
	},
	"faulterr": {
		"fpcache/internal/snap",
		"fpcache/internal/memtrace",
		"fpcache/internal/system",
	},
	"workershare": {
		"fpcache/internal/sweep",
		"fpcache/internal/system",
		"fpcache/internal/experiments",
		"fpcache/internal/control",
		"fpcache/cmd/fpsim",
	},
}

// Suite returns the fplint analyzers with their production scopes
// applied. Shared with cmd/fplint's tests.
func suite() []*lint.Analyzer {
	all := []*lint.Analyzer{
		determinism.Analyzer,
		hotpath.Analyzer,
		faulterr.Analyzer,
		snapmeta.Analyzer,
		workershare.Analyzer,
		allocbudget.Analyzer,
	}
	out := make([]*lint.Analyzer, len(all))
	for i, a := range all {
		scoped := *a
		if paths, ok := scopes[a.Name]; ok {
			scoped.Match = matcher(paths)
		}
		out[i] = &scoped
	}
	return out
}

func matcher(paths []string) func(string) bool {
	return func(pkg string) bool {
		for _, p := range paths {
			if pkg == p {
				return true
			}
		}
		return false
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("fplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("C", ".", "directory to resolve package patterns in (the module root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := suite()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "fplint: %v\n", err)
		return 2
	}
	diags, audit, err := lint.RunProgramAudit(prog, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "fplint: %v\n", err)
		return 2
	}
	enabled := map[string]bool{}
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	diags = append(diags, lint.StaleIgnores(audit, enabled)...)
	lint.SortDiagnostics(diags)

	for _, d := range diags {
		fmt.Fprintf(stdout, "%s\n", d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fplint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
