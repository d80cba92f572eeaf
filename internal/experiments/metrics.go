// Package experiments contains the evaluation harness that regenerates
// every table and figure of the paper's §8: detection-trial machinery,
// ROC sweeps, communication-overhead accounting, and the per-figure
// experiment drivers shared by cmd/jaal-experiments and the benchmark
// suite.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// ROCPoint is one operating point of a ROC curve: the thresholds swept
// are τ_d (and implicitly τ_c, τ_v which stay at their rule defaults).
type ROCPoint struct {
	TauD float64
	TPR  float64
	FPR  float64
}

// ROCCurve is a series of points for one configuration.
type ROCCurve struct {
	// Label names the configuration (e.g. "k=200").
	Label  string
	Points []ROCPoint
}

// AUC approximates the area under the ROC by trapezoidal integration
// over the upper envelope of the operating points: the points are a
// cloud of (τ_d, τ_c) combinations, so for each false-positive level the
// best achievable TPR defines the curve, anchored at (0,0) and (1,1).
func (c ROCCurve) AUC() float64 {
	pts := append([]ROCPoint(nil), c.Points...)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].FPR != pts[j].FPR {
			return pts[i].FPR < pts[j].FPR
		}
		return pts[i].TPR > pts[j].TPR
	})
	fpr := []float64{0}
	tpr := []float64{0}
	best := 0.0
	for _, p := range pts {
		if p.TPR > best {
			best = p.TPR
			fpr = append(fpr, p.FPR)
			tpr = append(tpr, best)
		}
	}
	fpr = append(fpr, 1)
	tpr = append(tpr, 1)
	var auc float64
	for i := 1; i < len(fpr); i++ {
		auc += float64((fpr[i] - fpr[i-1]) * (tpr[i] + tpr[i-1]) / 2)
	}
	return auc
}

// TPRAtFPR returns the best TPR achievable at or below the given FPR
// budget, or 0 when no point qualifies.
func (c ROCCurve) TPRAtFPR(budget float64) float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.FPR <= budget && p.TPR > best {
			best = p.TPR
		}
	}
	return best
}

// Table is a rendered experiment result: rows of labeled numeric cells,
// printable as an aligned text table — the "same rows/series the paper
// reports".
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries shape commentary (what should hold vs the paper).
	Notes []string
}

// Render prints the table in aligned text form.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// pct formats a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// f3 formats a float with 3 decimals.
func f3(f float64) string { return fmt.Sprintf("%.3f", f) }
