package hotalloc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotalloc"
)

func Test(t *testing.T) {
	analysistest.Run(t, hotalloc.Analyzer, "testdata", "core", "other")
}

// TestBareAnnotationReported pins that a suppression without a reason
// suppresses nothing and is itself a finding — the driver's
// malformed-suppression one, the same for every analyzer. (This cannot
// live in a fixture: the bare comment is the only comment on its line,
// leaving no room for a want clause.)
func TestBareAnnotationReported(t *testing.T) {
	const src = `package core

type Monitor struct{}

func (m *Monitor) Ingest(h int) {
	var xs []int
	//jaalvet:ignore hotalloc
	xs = append(xs, h)
	_ = xs
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "core.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, info, err := analysis.TypeCheck("core", fset, []*ast.File{f},
		analysis.NewImporter(fset, map[string]string{}))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run([]*analysis.Package{{
		Path: "core", Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info,
	}}, []*analysis.Analyzer{hotalloc.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	var gotBare, gotAppend bool
	for _, fd := range findings {
		if fd.Analyzer == "jaalvet" && strings.Contains(fd.Message, "malformed suppression") {
			gotBare = true
		}
		if fd.Analyzer == "hotalloc" && strings.Contains(fd.Message, "append grows capacity-less slice xs") {
			gotAppend = true
		}
	}
	if !gotBare {
		t.Errorf("bare suppression not reported; findings: %v", findings)
	}
	if !gotAppend {
		t.Errorf("bare suppression wrongly silenced the append finding; findings: %v", findings)
	}
}
