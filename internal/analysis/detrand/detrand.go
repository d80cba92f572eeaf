// Package detrand forbids nondeterministic sources — the global
// math/rand functions and the argless wall clock — inside the
// packages whose outputs must be byte-identical across same-seed runs
// (analysis.DeterministicPackages).
//
// Randomness must flow from a seeded *rand.Rand (the netsim and
// summary Config.Seed pattern); time must derive from epoch counters or
// an injected clock (inference.Clock). The analyzer flags:
//
//   - calls to math/rand package-level functions that read the global
//     source (Intn, Float64, Perm, Shuffle, …) — constructors like
//     rand.New, rand.NewSource and rand.NewZipf are fine, and method
//     calls on a *rand.Rand value never match;
//   - calls to time.Now and time.Since, which stamp values with the
//     wall clock (the pre-fix inference/alert.go bug: Alert.Time from
//     time.Now made same-seed alert streams differ byte-for-byte).
//
// Timings that feed only the observability side channel are legitimate
// (they never influence outputs — DESIGN.md "Observability") and are
// suppressed at the call site with //jaalvet:ignore detrand plus the
// justification.
package detrand

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the detrand checker.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid global math/rand and wall-clock reads in deterministic packages",
	Run:  run,
}

// globalSafe lists the math/rand package-level names that do not touch
// the global source: constructors and types.
var globalSafe = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pkgName.Imported().Path() {
			case "math/rand", "math/rand/v2":
				if !globalSafe[sel.Sel.Name] {
					pass.Reportf(call.Pos(),
						"call to math/rand.%s uses the process-global RNG in deterministic package %s; draw from an injected, seeded *rand.Rand instead",
						sel.Sel.Name, pass.Pkg.Path())
				}
			case "time":
				if name := sel.Sel.Name; name == "Now" || name == "Since" {
					pass.Reportf(call.Pos(),
						"time.%s reads the wall clock in deterministic package %s; derive timestamps from the epoch or an injected clock",
						name, pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
