package inference

import (
	"cmp"
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
// it fails d_q ≤ τ_d, so the matched set — reported in ascending row
// order — is the full sweep's.
func estimateWithThreshold(agg *Aggregate, q *rules.Question, tauD float64) *MatchResult {
	res := &MatchResult{Question: q, VariancePassed: true}
	active := 0
	for _, qf := range q.Vector {
		if qf != rules.Irrelevant {
			active++
		}
	}
	var window []int32
	if active == 0 {
		// At distance +Inf from every row, which still matches at
		// τ_d = +Inf: the question gets every row.
		window = agg.column(0).rows
	} else {
		budget := rules.MatchBudget(tauD, active)
		first := true
		for f, qf := range q.Vector {
			if qf == rules.Irrelevant {
				continue
			}
			if w := agg.column(packet.FieldIndex(f)).window(qf, budget); first || len(w) < len(window) {
				window, first = w, false
			}
		}
	}
	for _, r := range window {
		if q.Distance(agg.Representatives.Row(int(r))) <= tauD {
			res.MatchedCount += agg.Counts[r]
			res.MatchedRows = append(res.MatchedRows, int(r))
		}
	}
	slices.Sort(res.MatchedRows)
	return finishEstimate(agg, q, res)
}

// estimatePruned produces the result for a question the index proved
// unmatchable this epoch. It runs the same tail as a scan that found
// nothing — tracked-window narrowing of an empty set, the τ_c compare,
// the variance gate — so an index-pruned result is byte-identical to
// the linear scan's result, whatever the thresholds.
func estimatePruned(agg *Aggregate, q *rules.Question) *MatchResult {
	return finishEstimate(agg, q, &MatchResult{Question: q, VariancePassed: true})
}

// finishEstimate applies the post-scan stages of Algorithm 1 to a
// result whose MatchedRows/MatchedCount hold the distance-matched set:
// tracked-window narrowing, the count threshold, and the Algorithm 2
// variance postprocessor.
func finishEstimate(agg *Aggregate, q *rules.Question, res *MatchResult) *MatchResult {
	res.AllMatchedRows = res.MatchedRows
	res.CoreRows = res.MatchedRows
	res.FetchRows = res.MatchedRows
	if q.TrackBy >= 0 && q.TrackBy < packet.NumFields {
		// "track by_dst" semantics on summaries: the rule fires only
		// when the matched count concentrates on one tracked-field
		// value. The matched set Q narrows to the winning window so
		// the postprocessor analyzes the suspicious subset.
		field := packet.FieldIndex(q.TrackBy)
		w := trackWindow(q)
		rows, count := maxWindowCount(agg, res.MatchedRows, field, w)
		res.MatchedRows = rows
		res.MatchedCount = count
		// The micro-window isolates the single dominant tracked value
		// (pure attack clusters sit exactly on the victim).
		res.CoreRows, _ = maxWindowCount(agg, rows, field, w/10)
		// The fetch window is 50× wider: a cluster holding victim
		// packets plus strays has its centroid pulled at most a few
		// window-widths off the victim.
		res.FetchRows, _ = maxWindowCount(agg, res.AllMatchedRows, field, 50*w)
	}
	res.Matched = res.MatchedCount >= q.CountThreshold
	if q.Variance != nil {
		res.Variance = MatchedVariance(agg, res.CoreRows, q.Variance.Field)
		res.VariancePassed = res.Variance >= q.Variance.Threshold
	}
	return res
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

// estimateScratch holds per-call working slices for the hot estimator
// helpers. Only the MatchedRows/FetchRows/CoreRows result slices escape
// into MatchResult; everything else is recycled through scratchPool, so
// per-question cost stays flat across epochs (TestEstimatorScratchReuse
// pins this).
type estimateScratch struct {
	vals    []fv
	values  []float64
	weights []float64
}

var scratchPool = sync.Pool{New: func() any { return new(estimateScratch) }}

// maxWindowCount finds, over the matched rows sorted by the tracked
// field, the window of the given width with the maximum total membership
// count. It returns the rows inside that window and their count.
func maxWindowCount(agg *Aggregate, rows []int, field packet.FieldIndex, width float64) ([]int, int) {
	if len(rows) == 0 {
		return nil, 0
	}
	sc := scratchPool.Get().(*estimateScratch)
	if cap(sc.vals) < len(rows) {
		sc.vals = make([]fv, len(rows))
	}
	vals := sc.vals[:len(rows)]
	for i, r := range rows {
		vals[i] = fv{row: r, val: agg.Representatives.At(r, int(field))}
	}
	slices.SortFunc(vals, func(a, b fv) int { return cmp.Compare(a.val, b.val) })

	bestLo, bestHi, bestCount := 0, 0, 0
	lo, count := 0, 0
	for hi := 0; hi < len(vals); hi++ {
		count += agg.Counts[vals[hi].row]
		for vals[hi].val-vals[lo].val > width {
			count -= agg.Counts[vals[lo].row]
			lo++
		}
		if count > bestCount {
			bestLo, bestHi, bestCount = lo, hi, count
		}
	}
	out := make([]int, 0, bestHi-bestLo+1)
	for i := bestLo; i <= bestHi; i++ {
		out = append(out, vals[i].row)
	}
	scratchPool.Put(sc)
	slices.Sort(out)
	return out, bestCount
}

// MatchedVariance runs Algorithm 2: the weighted variance of a
// normalized header field over the matched representatives, where each
// representative counts c_i times (the "add x_i(h) c_i times to Z" loop).
func MatchedVariance(agg *Aggregate, rows []int, field packet.FieldIndex) float64 {
	if len(rows) == 0 {
		return 0
	}
	sc := scratchPool.Get().(*estimateScratch)
	if cap(sc.values) < len(rows) {
		sc.values = make([]float64, len(rows))
		sc.weights = make([]float64, len(rows))
	}
	values, weights := sc.values[:len(rows)], sc.weights[:len(rows)]
	for i, r := range rows {
		values[i] = agg.Representatives.At(r, int(field))
		weights[i] = float64(agg.Counts[r])
	}
	v := linalg.WeightedVariance(values, weights)
	scratchPool.Put(sc)
	return v
}
