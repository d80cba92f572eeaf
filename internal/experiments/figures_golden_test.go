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
	"rewrite the quick Fig. 7/8/9 golden file")

// TestQuickFiguresGolden pins the -quick Fig. 7, Fig. 8 and Fig. 9
// tables (the topology, netsim, Mirai and flow-assignment models behind
// §8) byte for byte, as `jaal-experiments -quick fig7|fig8|fig9` prints
// them on the default topology. Regenerate with -update-figure-golden
// after an intentional model change.
func TestQuickFiguresGolden(t *testing.T) {
	var b strings.Builder
	top := topology.Abovenet()
	_, fig7, err := Fig7Replication(5, top)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(fig7.Render())
	_, _, fig8, err := Fig8Mirai()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(fig8.Render())
	_, fig9, err := Fig9FlowAssign(1000, top)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(fig9.Render())
	got := b.String()

	golden := filepath.Join("testdata", "figures_quick.golden")
	if *updateFigureGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-figure-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("quick Fig. 7/8/9 tables drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
