package scenario

import (
	"flag"
	"fmt"
	"strings"
	"testing"
)

// updateHeldOutGolden regenerates testdata/scoreboard_heldout.golden.
// Every τ is fitted on the catalogue's own seeds, so this golden pins
// what the detector does on seeds nobody tuned on; rewrite it only
// after an intentional detection change, together with
// scoreboard.golden:
//
//	go test ./internal/scenario/ -run TestHeldOutScoreboardGolden -update-heldout-golden
var updateHeldOutGolden = flag.Bool("update-heldout-golden", false,
	"rewrite testdata/scoreboard_heldout.golden from the current pipeline output")

// heldOutGate names a profile ("quick" or "full") whose whole held-out
// gate set — seed offsets +1000…+5000 — TestHeldOutScoreboardGolden
// also runs and tabulates against the fit seeds (offset 0). Off by
// default, so a plain run stays one pass over the catalogue:
//
//	go test ./internal/scenario/ -run TestHeldOutScoreboardGolden -heldout-gate full -v
var heldOutGate = flag.String("heldout-gate", "",
	`also run and log the held-out gate set (seed offsets +1000…+5000) under this profile ("quick" or "full")`)

const heldOutGoldenPath = "testdata/scoreboard_heldout.golden"

// heldOutOffsets are the seed offsets of the gate set. Offset +1000 is
// the one the golden pins.
var heldOutOffsets = []int64{1000, 2000, 3000, 4000, 5000}

// runShifted runs every catalogue scenario with its seed moved by
// offset, in catalogue order.
func runShifted(p Profile, offset int64) (*Report, error) {
	rep := &Report{Profile: p.Name}
	for _, s := range Catalogue() {
		s.Seed += offset
		r, err := Run(s, p)
		if err != nil {
			return nil, fmt.Errorf("scenario %s, seed offset %d: %w", s.Name, offset, err)
		}
		rep.Results = append(rep.Results, *r)
	}
	return rep, nil
}

// TestHeldOutScoreboardGolden scores the catalogue on seeds shifted by
// +1000, which no threshold was fitted on, and holds the quick
// profile's scoreboard within the tolerance bands of its own golden.
// The scores are committed as they are: a weak held-out scenario is a
// finding for an accuracy change, not a reason to move a τ here.
func TestHeldOutScoreboardGolden(t *testing.T) {
	rep, err := runShifted(QuickProfile(), heldOutOffsets[0])
	if err != nil {
		t.Fatal(err)
	}
	if *updateHeldOutGolden {
		if err := WriteGolden(heldOutGoldenPath, rep); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := LoadGolden(heldOutGoldenPath)
		if err != nil {
			t.Fatalf("reading golden (run with -update-heldout-golden to create): %v", err)
		}
		for _, v := range Compare(rep, want) {
			t.Errorf("violation: %s", v)
		}
	}
	if *heldOutGate == "" {
		return
	}
	p, err := ProfileByName(*heldOutGate)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := runShifted(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var gate []*Report
	for _, off := range heldOutOffsets {
		r, err := runShifted(p, off)
		if err != nil {
			t.Fatal(err)
		}
		gate = append(gate, r)
	}
	t.Logf("held-out gate set, %s profile, offsets %v:\n%s", p.Name, heldOutOffsets, gapTable(fit, gate))
}

// tally sums confusion counts; its F1 is the pooled one.
type tally struct{ tp, fp, fn int }

func (c *tally) add(r Result) { c.tp += r.TP; c.fp += r.FP; c.fn += r.FN }

func (c tally) f1() float64 {
	if 2*c.tp+c.fp+c.fn == 0 {
		return 1 // nothing to find and nothing raised
	}
	return float64(2*c.tp) / float64(2*c.tp+c.fp+c.fn)
}

// gapTable renders the fit/gate gap per scenario as a Markdown table:
// F1 on the fit seeds, pooled F1 (from summed TP, FP, FN) over the gate
// set, the gate set's weakest run, and its summed FP and FN. A trap has
// no positives, so only its false positives are shown; they still count
// in the pooled row.
func gapTable(fit *Report, gate []*Report) string {
	var b strings.Builder
	b.WriteString("| scenario | fit F1 | gate pooled F1 | gate min F1 | gate FP | gate FN |\n|---|---|---|---|---|---|\n")
	var fitAll, gateAll tally
	minAll := 1.0
	for i, fr := range fit.Results {
		var f, g tally
		f.add(fr)
		fitAll.add(fr)
		minF1 := 1.0
		for _, rep := range gate {
			var one tally
			one.add(rep.Results[i])
			g.add(rep.Results[i])
			gateAll.add(rep.Results[i])
			minF1 = min(minF1, one.f1())
		}
		if fr.Positives == 0 {
			fmt.Fprintf(&b, "| %s (trap) | — | — | — | %d | %d |\n", fr.Scenario, g.fp, g.fn)
			continue
		}
		minAll = min(minAll, minF1)
		fmt.Fprintf(&b, "| %s | %.3f | %.3f | %.3f | %d | %d |\n", fr.Scenario, f.f1(), g.f1(), minF1, g.fp, g.fn)
	}
	fmt.Fprintf(&b, "| pooled | %.3f | %.3f | %.3f | %d | %d |\n", fitAll.f1(), gateAll.f1(), minAll, gateAll.fp, gateAll.fn)
	return b.String()
}
