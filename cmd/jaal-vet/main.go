// Command jaal-vet is the project's multichecker: it runs the custom
// static analyzers of internal/analysis/... over the repo and exits
// non-zero on any finding. It is part of scripts/check.sh and CI, so an
// invariant violation fails the build mechanically.
//
// Usage:
//
//	jaal-vet [-checks detrand,mapiter,...] [-list] [-summary] [packages]
//
// Packages default to ./..., resolved in the current module. Findings
// print one per line as file:line:col: analyzer: message. A finding is
// silenced — after review, with a reason — by an inline
// //jaalvet:ignore comment; see internal/analysis and DESIGN.md
// ("Static analysis"). A suppression that no longer silences anything
// is reported as a warning (stale suppressions hide nothing but rot
// into misdocumentation); -summary prints per-analyzer finding and
// suppression counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detrand"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/mapiter"
	"repro/internal/analysis/spanend"
	"repro/internal/analysis/unusedhelper"
)

// all registers every analyzer, in the order findings are attributed.
var all = []*analysis.Analyzer{
	detrand.Analyzer,
	hotalloc.Analyzer,
	mapiter.Analyzer,
	spanend.Analyzer,
	unusedhelper.Analyzer,
}

func main() {
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	summary := flag.Bool("summary", false, "print per-analyzer finding/suppression counts to stderr")
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *checks != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*checks, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "jaal-vet: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jaal-vet:", err)
		os.Exit(2)
	}
	res, err := analysis.RunDetailed(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jaal-vet:", err)
		os.Exit(2)
	}
	for _, f := range res.Findings {
		fmt.Println(f)
	}
	// Stale suppressions warn rather than fail: the code is clean, but
	// the comment now documents a finding that no longer exists.
	for _, f := range res.Stale {
		fmt.Fprintf(os.Stderr, "jaal-vet: warning: %s\n", f)
	}
	if *summary {
		names := make([]string, 0, len(res.Stats))
		for name := range res.Stats {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := res.Stats[name]
			fmt.Fprintf(os.Stderr, "jaal-vet: %-12s %d finding(s), %d suppressed\n",
				name, st.Findings, st.Suppressed)
		}
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "jaal-vet: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}
