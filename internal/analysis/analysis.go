// Package analysis is Jaal's static-analysis framework: a dependency-free
// reimplementation of the core golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) plus a package loader and a suppression
// convention, used by the jaal-vet multichecker (cmd/jaal-vet) to enforce
// the repo's determinism, hot-path allocation, span and dead-code
// invariants mechanically.
//
// The runtime determinism tests (TestPipelineParallelDeterminism,
// TestPipelineObsDeterminism) only catch violations that happen to fire
// during a test run; the analyzers here reject whole bug classes at
// review time instead. Each analyzer lives in its own subpackage
// (detrand, mapiter, hotalloc, spanend, unusedhelper) with
// analysistest fixtures under testdata/src.
//
// The API mirrors x/tools so the analyzers port verbatim if the real
// module ever becomes a dependency; only the loader differs — it shells
// out to `go list -deps -export -json` and type-checks against compiler
// export data, the same strategy as go vet's unitchecker, so it needs
// nothing outside the standard library and the go toolchain.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //jaalvet:ignore suppressions. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by jaal-vet -list.
	Doc string
	// Run executes the analyzer on one package. Diagnostics are
	// reported through the pass; the returned error aborts the whole
	// vet run (reserved for internal failures, not findings).
	Run func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	// Analyzer is the currently running checker.
	Analyzer *Analyzer
	// Fset maps positions for every file in the package.
	Fset *token.FileSet
	// Files are the package's parsed sources (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's fact tables for Files.
	TypesInfo *types.Info
	// Shared is a per-analyzer scratch map that persists across the
	// packages of one Run, letting an analyzer carry facts between
	// packages (e.g. hotalloc's reachability marks). Packages are
	// visited importers-first — a package runs before anything it
	// imports — so facts flow in call direction: by the time a callee's
	// package is analyzed, every caller package already deposited its
	// facts. The map is nil-safe to read but only non-nil inside Run.
	Shared map[string]any

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Position resolves a diagnostic position against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// DeterministicPackages names the packages whose outputs must be
// byte-identical across same-seed runs, worker counts, and
// observability settings (DESIGN.md "Performance"; PAPER.md §6). The
// detrand and mapiter analyzers fire only inside these packages.
var DeterministicPackages = map[string]bool{
	"core":       true,
	"summary":    true,
	"linalg":     true,
	"inference":  true,
	"flowassign": true,
	"netsim":     true,
	"trafficgen": true,
}

// IsDeterministic reports whether the import path names a package with
// the reproducibility obligation. It matches on the final path element
// so both the real tree (repro/internal/core) and analysistest fixture
// paths (core) qualify.
func IsDeterministic(pkgPath string) bool {
	return DeterministicPackages[lastPathElem(pkgPath)]
}

func lastPathElem(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
