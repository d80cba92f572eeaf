package experiments

import (
	"testing"

	"repro/internal/summary"
)

func TestAdaptiveAttackerShape(t *testing.T) {
	res, tbl, err := AdaptiveAttacker(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatal("table must compare two attackers")
	}
	// The naive, tool-like attacker must be caught reliably; the
	// adaptive one must not do better than the naive one.
	if res.NaiveDetection < 0.8 {
		t.Fatalf("naive detection %.2f too low", res.NaiveDetection)
	}
	if res.AdaptiveDetection > res.NaiveDetection {
		t.Fatalf("adaptive attacker (%.2f) must not be easier to catch than naive (%.2f)",
			res.AdaptiveDetection, res.NaiveDetection)
	}
}

func TestMultiWindowCorrelationShape(t *testing.T) {
	results, tbl, err := MultiWindowCorrelation(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || len(tbl.Rows) != 3 {
		t.Fatalf("expected 3 window settings, got %d", len(results))
	}
	// FPR must be non-increasing in the window requirement, and the
	// persistent attack's TPR must stay high at w=2.
	for i := 1; i < len(results); i++ {
		if results[i].FPR > results[i-1].FPR+1e-9 {
			t.Fatalf("FPR must not grow with stricter correlation: %v", results)
		}
	}
	if results[1].TPR < 0.8 {
		t.Fatalf("persistent attack TPR at w=2 is %.2f, want ≥ 0.8", results[1].TPR)
	}
}

func TestSplitVsCombined(t *testing.T) {
	res, tbl, err := SplitVsCombined()
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitElements >= res.CombinedElements {
		t.Fatal("split must be cheaper at the paper's operating point")
	}
	if res.SplitElements != summary.SplitSize(12, 200, 18) {
		t.Fatalf("split size %d inconsistent", res.SplitElements)
	}
	if res.ApproximationError <= 0 || res.ApproximationError > 0.6 {
		t.Fatalf("approximation error %.3f out of plausible range", res.ApproximationError)
	}
	if len(tbl.Rows) != 2 {
		t.Fatal("table must list both encodings")
	}
}
