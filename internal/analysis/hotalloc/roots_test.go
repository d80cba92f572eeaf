package hotalloc

import (
	"go/ast"
	"testing"

	"repro/internal/analysis"
)

// TestHotRootsExist loads the real packages hotRoots is keyed by and
// fails on a root that names no declaration there. run ignores an
// unmatched root, so a rename of (*Engine).RunEpoch or par.For would
// otherwise drop the functions below it from the hot path without a word.
func TestHotRootsExist(t *testing.T) {
	pkgs, err := analysis.Load("../../..", "repro/internal/core", "repro/internal/par")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]map[string]bool{}
	for _, pkg := range pkgs {
		names := map[string]bool{}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					names[declName(fd)] = true
				}
			}
		}
		declared[lastElem(pkg.Path)] = names
	}
	for pkg, roots := range hotRoots {
		if declared[pkg] == nil {
			t.Errorf("hotRoots names package %q, which was not loaded", pkg)
			continue
		}
		for _, root := range roots {
			if !declared[pkg][root] {
				t.Errorf("hot root %s.%s names no declaration", pkg, root)
			}
		}
	}
}
