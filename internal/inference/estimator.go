package inference

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/linalg"
	"repro/internal/packet"
	"repro/internal/rules"
)

// MatchResult is the outcome of running Algorithm 1 (similarity
// estimation) for one question against one aggregate.
type MatchResult struct {
	// Question is the evaluated question.
	Question *rules.Question
	// Matched reports whether the count of packets behind matching
	// centroids met τ_c.
	Matched bool
	// MatchedCount is Σ c_i over centroids with d_q(x_i) ≤ τ_d.
	MatchedCount int
	// MatchedRows indexes the rows of the aggregate whose centroids
	// matched — the set Q of Algorithm 1.
	MatchedRows []int
	// AllMatchedRows is the full distance-matched set before any
	// tracked-window narrowing — every centroid that looks like the
	// signature, including clusters whose tracked-field value blurred
	// away from the window.
	AllMatchedRows []int
	// FetchRows is the set the feedback loop pulls raw packets for: the
	// matched rows within a widened window around the winning tracked
	// value. Wide enough that clusters contaminated with other
	// destinations (whose centroids blurred off the victim) are still
	// fetched, narrow enough that the fetch stays proportional to the
	// suspicion rather than the epoch. Equal to MatchedRows for
	// untracked questions.
	FetchRows []int
	// CoreRows is the dominant-value subset of MatchedRows along the
	// tracked field: the rows within a micro-window around the single
	// busiest tracked value. Postprocessor variance runs on this purer
	// subset so that benign clusters sharing the tracked window cannot
	// drown the attack's variance signal. Equal to MatchedRows for
	// untracked questions.
	CoreRows []int
	// VariancePassed reports the postprocessor verdict (Algorithm 2)
	// when the question carries a variance check; it is true when no
	// check is configured.
	VariancePassed bool
	// Variance is the measured weighted variance of the checked field
	// over matching representatives (0 when no check is configured).
	Variance float64
}

// Alerted reports whether the match constitutes an alert: the count
// threshold was met and, if a variance check is configured, the variance
// threshold was met too.
func (m *MatchResult) Alerted() bool { return m.Matched && m.VariancePassed }

// EstimateSimilarity runs Algorithm 1: it measures d_q against the
// representatives of the aggregate, sums the membership counts of
// matching centroids, and compares against τ_c. When the question
// carries a variance directive, Algorithm 2 runs over the matched set Q.
func EstimateSimilarity(agg *Aggregate, q *rules.Question) *MatchResult {
	return estimateWithThreshold(agg, q, q.DistanceThreshold)
}

// estimateWithThreshold is Algorithm 1 with an explicit τ_d, shared by
// the plain path and the feedback loop's second-stage evaluation.
//
// Eq. 5 is a mean of non-negative per-field terms, so a centroid can
// match only if on every constrained field it deviates from the question
// by at most the τ_d·n budget (rules.MatchBudget). The exact distance is
// therefore measured only on the rows inside the narrowest such
// per-field window of the aggregate's sorted columns; every row outside
// it fails d_q ≤ τ_d. Each row's sum is rules.PinDistance over the
// question's pins, the sum Question.Distance divides, so it has
// Distance's bits; a row whose partial sum passes the budget fails
// d_q ≤ τ_d too. The matched set — reported in ascending row order — is
// the full sweep's.
func estimateWithThreshold(agg *Aggregate, q *rules.Question, tauD float64) *MatchResult {
	var buf [packet.NumFields]rules.Pin
	pins := q.AppendPins(buf[:0])
	sc := scratchPool.Get().(*estimateScratch)
	matched, count := sc.rows[:0], 0
	if len(pins) == 0 {
		// At distance +Inf from every row, which still matches at
		// τ_d = +Inf: the question gets every row.
		if math.IsInf(tauD, 1) {
			for r := 0; r < agg.Rows(); r++ {
				matched = append(matched, r)
				count += agg.Counts[r]
			}
		}
	} else if agg.Rows() > 0 {
		// Not only a shortcut: the zero Aggregate has no matrix to read.
		budget := rules.MatchBudget(tauD, len(pins))
		n := float64(len(pins))
		data, stride := agg.Representatives.Data(), agg.Representatives.Cols()
		for _, r := range agg.window(pins, budget) {
			x := data[int(r)*stride : int(r)*stride+stride]
			if sum, within := rules.PinDistance(pins, x, budget); within && sum/n <= tauD {
				matched = append(matched, int(r))
				count += agg.Counts[r]
			}
		}
		slices.Sort(matched)
	}
	res := finishEstimate(agg, q, sc, matched, count)
	sc.rows = matched
	scratchPool.Put(sc)
	return res
}

// estimatePruned produces the result for a question the index proved
// unmatchable this epoch. It runs the same tail as a scan that found
// nothing — tracked-window narrowing of an empty set, the τ_c compare,
// the variance gate — so an index-pruned result is byte-identical to
// the linear scan's result, whatever the thresholds.
func estimatePruned(agg *Aggregate, q *rules.Question) *MatchResult {
	return finishEstimate(agg, q, nil, nil, 0)
}

// finishEstimate applies the post-scan stages of Algorithm 1 to the
// distance-matched set — matched, in ascending row order, whose counts
// sum to count: tracked-window narrowing, the count threshold, and the
// Algorithm 2 variance postprocessor. matched may be scratch: the row
// sets of the result are copied out of it, all of them into one
// allocation. sc is only read when matched is not empty.
func finishEstimate(agg *Aggregate, q *rules.Question, sc *estimateScratch, matched []int, count int) *MatchResult {
	res := &MatchResult{Question: q, MatchedCount: count, VariancePassed: true}
	switch {
	case len(matched) == 0:
	case q.TrackBy >= 0 && q.TrackBy < packet.NumFields:
		sc.track(agg, res, matched, packet.FieldIndex(q.TrackBy), trackWindow(q))
	default:
		rows := slices.Clone(matched)
		res.AllMatchedRows, res.MatchedRows, res.CoreRows, res.FetchRows = rows, rows, rows, rows
	}
	res.Matched = res.MatchedCount >= q.CountThreshold
	if q.Variance != nil {
		res.Variance = sc.variance(agg, res.CoreRows, q.Variance.Field)
		res.VariancePassed = res.Variance >= q.Variance.Threshold
	}
	return res
}

// track is "track by_dst" semantics on summaries: the rule fires only
// when the matched count concentrates on one tracked-field value, so
// the matched set Q narrows to the w-wide window of the tracked field
// holding the largest count, and the postprocessor analyzes that
// suspicious subset. Two more windows come out of the same order: the
// micro-window (w/10) inside it isolates the single dominant tracked
// value (pure attack clusters sit exactly on the victim), and the fetch
// window (50w) over all matched rows reaches clusters holding victim
// packets plus strays, whose centroids are pulled at most a few
// window-widths off the victim.
//
// The matched rows are sorted once, by (value, row) — a total order, so
// which of two rows tied on value falls inside a window's edge does not
// depend on the sort — and each window is a sub-range of that order.
// AllMatchedRows and the three windows' rows, each ascending, share one
// allocation.
func (sc *estimateScratch) track(agg *Aggregate, res *MatchResult, matched []int, field packet.FieldIndex, w float64) {
	vals := sc.vals[:0]
	for _, r := range matched {
		vals = append(vals, fv{row: r, val: agg.Representatives.At(r, int(field))})
	}
	slices.SortFunc(vals, func(a, b fv) int {
		if c := cmp.Compare(a.val, b.val); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	sc.vals = vals
	lo, hi, count := densest(agg, vals, w)
	clo, chi, _ := densest(agg, vals[lo:hi], w/10)
	flo, fhi, _ := densest(agg, vals, 50*w)

	buf := make([]int, len(matched)+(hi-lo)+(chi-clo)+(fhi-flo))
	res.AllMatchedRows, buf = rowsOf(vals, matched, buf)
	res.MatchedRows, buf = rowsOf(vals[lo:hi], matched, buf)
	res.CoreRows, buf = rowsOf(vals[lo+clo:lo+chi], matched, buf)
	res.FetchRows, _ = rowsOf(vals[flo:fhi], matched, buf)
	res.MatchedCount = count
}

// densest finds, over vals sorted by value, the window of the given
// width with the maximum total membership count: vals[lo:hi] and its
// count. Of equal counts the first window wins; with no positive count
// that is vals[:1]. vals must not be empty.
func densest(agg *Aggregate, vals []fv, width float64) (lo, hi, count int) {
	bestLo, bestHi := 0, 0
	l, c := 0, 0
	for h := range vals {
		c += agg.Counts[vals[h].row]
		for vals[h].val-vals[l].val > width {
			c -= agg.Counts[vals[l].row]
			l++
		}
		if c > count {
			bestLo, bestHi, count = l, h, c
		}
	}
	return bestLo, bestHi + 1, count
}

// rowsOf writes the rows of window, a sub-range of the sorted matched
// rows, in ascending order to the front of buf and returns them
// (capacity capped) and the rest of buf. A window holding every matched
// row is matched itself, already ascending.
func rowsOf(window []fv, matched, buf []int) ([]int, []int) {
	out := buf[:len(window):len(window)]
	if len(window) == len(matched) {
		copy(out, matched)
	} else {
		for i, v := range window {
			out[i] = v.row
		}
		slices.Sort(out)
	}
	return out, buf[len(window):]
}

// trackWindow returns the question's tracking window width with default.
func trackWindow(q *rules.Question) float64 {
	if q.TrackWindow > 0 {
		return q.TrackWindow
	}
	// ≈86k addresses: fine per-destination tracking. Pure attack
	// clusters sit exactly on the victim's value, so a narrow window
	// separates them sharply from the benign background; clusters
	// contaminated with other destinations blur out of the window and
	// their counts are lost — which is precisely the accuracy penalty
	// of under-provisioned k the paper measures (Fig. 4).
	return 2e-5
}

// fv pairs a matched row with its tracked-field value for window sort.
type fv struct {
	row int
	val float64
}

// estimateScratch holds per-call working slices for the estimator: the
// matched rows, the tracked-field sort and the variance inputs. None of
// them escapes into a MatchResult; they are recycled through
// scratchPool, so per-question cost stays flat across epochs
// (TestEstimatorScratchReuse pins this).
type estimateScratch struct {
	rows    []int
	vals    []fv
	values  []float64
	weights []float64
}

var scratchPool = sync.Pool{New: func() any { return new(estimateScratch) }}

// MatchedVariance runs Algorithm 2: the weighted variance of a
// normalized header field over the matched representatives, where each
// representative counts c_i times (the "add x_i(h) c_i times to Z" loop).
func MatchedVariance(agg *Aggregate, rows []int, field packet.FieldIndex) float64 {
	sc := scratchPool.Get().(*estimateScratch)
	v := sc.variance(agg, rows, field)
	scratchPool.Put(sc)
	return v
}

// variance is MatchedVariance over sc's buffers, which it does not
// touch when rows is empty.
func (sc *estimateScratch) variance(agg *Aggregate, rows []int, field packet.FieldIndex) float64 {
	if len(rows) == 0 {
		return 0
	}
	if cap(sc.values) < len(rows) {
		sc.values = make([]float64, len(rows))
		sc.weights = make([]float64, len(rows))
	}
	values, weights := sc.values[:len(rows)], sc.weights[:len(rows)]
	for i, r := range rows {
		values[i] = agg.Representatives.At(r, int(field))
		weights[i] = float64(agg.Counts[r])
	}
	return linalg.WeightedVariance(values, weights)
}
