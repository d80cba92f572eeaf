package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topology"
)

// updateFigureGolden regenerates testdata/figures_quick.golden from the
// current code instead of comparing against it.
var updateFigureGolden = flag.Bool("update-figure-golden", false,
	"rewrite the quick figures golden file")

// quickTable is one table of `jaal-experiments -quick all`, built the
// way the command builds it on the default topology.
type quickTable struct {
	name  string
	build func() (*Table, error)
	// race marks the tables still checked under the race detector,
	// where the whole set takes ten times as long.
	race bool
}

func quickTables() []quickTable {
	sc := QuickScale()
	top := topology.Abovenet()
	return []quickTable{
		{name: "fig4", build: func() (*Table, error) { _, t, err := Fig4VaryK(sc); return t, err }},
		{name: "fig5", build: func() (*Table, error) { _, t, err := Fig5VaryRank(sc); return t, err }},
		{name: "fig6", build: func() (*Table, error) { _, t, err := Fig6Feedback(sc); return t, err }},
		{name: "fig7", race: true, build: func() (*Table, error) { _, t, err := Fig7Replication(5, top); return t, err }},
		{name: "fig8", race: true, build: func() (*Table, error) { _, _, t, err := Fig8Mirai(); return t, err }},
		{name: "fig9", race: true, build: func() (*Table, error) { _, t, err := Fig9FlowAssign(1000, top); return t, err }},
		{name: "fig10", build: func() (*Table, error) { _, t, err := Fig10Spectrum(); return t, err }},
		{name: "fig11", build: func() (*Table, error) { _, t, err := Fig11Compression(); return t, err }},
		{name: "table1", build: func() (*Table, error) { _, t, err := Table1Reservoir(sc); return t, err }},
		{name: "headline", build: func() (*Table, error) { _, t, err := Headline(sc); return t, err }},
		{name: "varest", build: VarianceEstimation},
		{name: "adaptive", build: func() (*Table, error) { _, t, err := AdaptiveAttacker(5); return t, err }},
		{name: "multiwindow", build: func() (*Table, error) { _, t, err := MultiWindowCorrelation(5); return t, err }},
		{name: "encoding", build: func() (*Table, error) { _, t, err := SplitVsCombined(); return t, err }},
		{name: "coverage", build: func() (*Table, error) { _, t, err := MonitorCoverage(500); return t, err }},
		{name: "sketchcost", build: SketchCost},
		{name: "batchsize", build: func() (*Table, error) { _, t, err := BatchSizeSweep(5); return t, err }},
	}
}

// TestQuickFiguresGolden pins every table `jaal-experiments -quick all`
// prints, byte for byte: the golden file is that command's output, one
// table and a blank line per experiment. Under the race detector only
// the Fig. 7/8/9 tables (topology, netsim, Mirai and flow assignment)
// are rebuilt and compared. Regenerate with -update-figure-golden after
// an intentional model change.
func TestQuickFiguresGolden(t *testing.T) {
	tables := quickTables()
	golden := filepath.Join("testdata", "figures_quick.golden")
	if *updateFigureGolden {
		if raceBuild {
			t.Fatal("-update-figure-golden needs every table: run it without -race")
		}
		var b strings.Builder
		for _, qt := range tables {
			tbl, err := qt.build()
			if err != nil {
				t.Fatalf("%s: %v", qt.name, err)
			}
			b.WriteString(tbl.Render() + "\n")
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-figure-golden to create): %v", err)
	}
	// Every block but the last ends in the blank line that separates
	// two tables; the last is what follows the final one.
	blocks := strings.SplitAfter(string(want), "\n\n")
	if len(blocks) != len(tables)+1 || blocks[len(tables)] != "" {
		t.Fatalf("golden holds %d tables, want %d", len(blocks)-1, len(tables))
	}
	for i, qt := range tables {
		if raceBuild && !qt.race {
			continue
		}
		tbl, err := qt.build()
		if err != nil {
			t.Fatalf("%s: %v", qt.name, err)
		}
		if got := tbl.Render() + "\n"; got != blocks[i] {
			t.Errorf("quick %s table drifted from golden:\n--- got ---\n%s--- want ---\n%s", qt.name, got, blocks[i])
		}
	}
}
