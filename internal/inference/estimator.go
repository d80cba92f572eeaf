package inference

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/linalg"
	"repro/internal/packet"
	"repro/internal/rules"
)

// MatchResult is the outcome of running Algorithm 1 (similarity
// estimation) for one question against one aggregate.
//
// An Evaluator writes its results into the Results storage it is given,
// where they stay valid until the next Evaluate into that storage. The
// one-question calls (EstimateSimilarity*, RunFeedbackIndexed) hand
// results out of 64-entry chunks (resultChunk) instead, so one result
// shares its allocation with up to 63 others, from this and later calls
// on the same P: holding one keeps the whole chunk, and the fetch rows
// and questions its entries point to, alive. Either way, copy a result
// (*m) to keep it beyond the epoch that produced it.
type MatchResult struct {
	// Question is the evaluated question.
	Question *rules.Question
	// Matched reports whether MatchedCount met τ_c.
	Matched bool
	// MatchedCount is Σ c_i over centroids with d_q(x_i) ≤ τ_d — the
	// set Q of Algorithm 1. For a tracked question it is the count of
	// the densest tracked-field window of Q (track).
	MatchedCount int
	// FetchRows is the set the feedback loop pulls raw packets for, in
	// ascending row order: for a tracked question the matched rows
	// within a widened window around the winning tracked value — wide
	// enough that clusters contaminated with other destinations (whose
	// centroids blurred off the victim) are still fetched, narrow enough
	// that the fetch stays proportional to the suspicion rather than the
	// epoch; for an untracked one all of Q. Only a fetching stage builds
	// it: an Evaluator leaves it nil for a plain question and for stage
	// 1 of a feedback question, which nothing fetches for; the
	// one-question calls always fill it.
	FetchRows []int
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
// The result shares an allocation with other results (see MatchResult).
//
// EstimateSimilarity, EstimateSimilarityIndexed and RunFeedbackIndexed
// evaluate one question per call, re-deriving its pins and budget each
// time; the controller runs an Evaluator instead. They stay for
// bench/probe.go and internal/experiments, until the benchmark harness
// runs the controller's epoch loop (ROADMAP D1) and they can go.
func EstimateSimilarity(agg *Aggregate, q *rules.Question) *MatchResult {
	return estimateOne(agg, q, q.DistanceThreshold, true)
}

// estimateOne is one stage of one question through the estimator core,
// compiled on the spot, with a pooled scratch. Its result's FetchRows
// are always built, and copied out of the scratch.
func estimateOne(agg *Aggregate, q *rules.Question, tauD float64, candidate bool) *MatchResult {
	sc := scratchPool.Get().(*estimateScratch)
	sc.pins = q.AppendPins(sc.pins[:0])
	st := stage{q: q, pins: sc.pins, tauD: tauD, budget: rules.MatchBudget(tauD, len(sc.pins)), fetch: true}
	res := sc.result()
	sc.estimate(agg, &st, candidate, res)
	res.FetchRows = slices.Clone(res.FetchRows)
	sc.fetch = sc.fetch[:0]
	scratchPool.Put(sc)
	return res
}

// stage is one threshold evaluation of a question, compiled: the
// question (for stage 2 of a feedback question, its copy with the
// relaxed τ_c), its pins — its constrained (field, value) pairs in
// ascending field order — the τ_d it is held to, the per-field
// rules.MatchBudget of that τ_d, and whether anything reads the fetch
// rows.
type stage struct {
	q      *rules.Question
	pins   []rules.Pin
	tauD   float64
	budget float64
	fetch  bool
}

// estimate is Algorithm 1 for one stage, written into res. candidate
// false is the question index's proof that no row can match: the scan
// is skipped and the post-scan tail runs on the empty set, so the
// result equals the scan's, whatever the thresholds.
//
// Eq. 5 is a mean of non-negative per-field terms, so a centroid can
// match only if on every constrained field it deviates from the question
// by at most the τ_d·n budget (rules.MatchBudget). The exact distance is
// therefore measured only on the rows inside the narrowest such
// per-field window of the aggregate's sorted columns; every row outside
// it fails d_q ≤ τ_d. Each row's sum is rules.PinDistance over the
// question's pins, the sum Question.Distance divides, so it has
// Distance's bits; a row whose partial sum passes the budget fails
// d_q ≤ τ_d too. The matched set is the full sweep's, in ascending row
// order: the row test marks each match in a row bitmap, and draining it
// lists them in row order without a sort.
func (sc *estimateScratch) estimate(agg *Aggregate, st *stage, candidate bool, res *MatchResult) {
	pins, tauD := st.pins, st.tauD
	matched, count := sc.rows[:0], 0
	switch {
	case !candidate:
	case len(pins) == 0:
		// At distance +Inf from every row, which still matches at
		// τ_d = +Inf: the question gets every row.
		if math.IsInf(tauD, 1) {
			for r := 0; r < agg.Rows(); r++ {
				matched = append(matched, r)
				count += agg.Counts[r]
			}
		}
	case agg.Rows() > 0:
		// Not only a shortcut: the zero Aggregate has no matrix to read.
		n := float64(len(pins))
		data, stride := agg.Representatives.Data(), agg.Representatives.Cols()
		sc.set.fit(agg.Rows())
		for _, r := range agg.window(pins, st.budget) {
			x := data[int(r)*stride : int(r)*stride+stride]
			if sum, within := rules.PinDistance(pins, x, st.budget); within && sum/n <= tauD {
				sc.set.add(int(r))
				count += agg.Counts[r]
			}
		}
		matched = sc.set.drain(matched)
	}
	sc.rows = matched
	sc.finish(agg, st, matched, count, res)
}

// finish applies the post-scan stages of Algorithm 1 to the
// distance-matched set — matched, in ascending row order, whose counts
// sum to count: tracked-window narrowing, the count threshold, and the
// Algorithm 2 variance postprocessor. matched may be scratch. A fetching
// stage's FetchRows are appended to sc.fetch and stay valid, in place,
// until sc.fetch is emptied.
func (sc *estimateScratch) finish(agg *Aggregate, st *stage, matched []int, count int, res *MatchResult) {
	q := st.q
	*res = MatchResult{Question: q, MatchedCount: count, VariancePassed: true}
	core := matched
	switch {
	case len(matched) == 0:
	case q.TrackBy >= 0 && q.TrackBy < packet.NumFields:
		core = sc.track(agg, res, matched, packet.FieldIndex(q.TrackBy), trackWindow(q), st.fetch)
	case st.fetch:
		res.FetchRows = sc.keepFetch(len(sc.fetch), append(sc.fetch, matched...))
	}
	res.Matched = res.MatchedCount >= q.CountThreshold
	if q.Variance != nil {
		res.Variance = sc.variance(agg, core, q.Variance.Field)
		res.VariancePassed = res.Variance >= q.Variance.Threshold
	}
}

// keepFetch makes fetch, sc.fetch with one result's rows appended from
// start on, the scratch's fetch buffer and returns those rows, capped so
// that a later append cannot write over them.
func (sc *estimateScratch) keepFetch(start int, fetch []int) []int {
	sc.fetch = fetch
	return fetch[start:len(fetch):len(fetch)]
}

// track is "track by_dst" semantics on summaries: the rule fires only
// when the matched count concentrates on one tracked-field value, so
// the count is that of the w-wide window of the tracked field holding
// the largest count. Two more windows come out of the same order: the
// micro-window (w/10) inside it isolates the single dominant tracked
// value (pure attack clusters sit exactly on the victim), and, when
// fetch is set, the fetch window (50w) over all matched rows reaches
// clusters holding victim packets plus strays, whose centroids are
// pulled at most a few window-widths off the victim.
//
// The matched rows are listed once in the tracked field's column order,
// (value, row) — a total order, so which of two rows tied on value
// falls inside a window's edge does not depend on how the column was
// built — by marking their ranks in a bitmap and draining it. Each window
// is a sub-range of that order. The fetch window's rows, ascending, go
// to res.FetchRows through sc.fetch; the micro-window's, ascending, are
// returned in sc's core buffer: the core set Algorithm 2's variance runs on, so that
// benign clusters sharing the tracked window cannot drown the attack's
// variance signal.
func (sc *estimateScratch) track(agg *Aggregate, res *MatchResult, matched []int, field packet.FieldIndex, w float64, fetch bool) []int {
	c := agg.column(field)
	sc.set.fit(agg.Rows())
	for _, r := range matched {
		sc.set.add(int(c.rank[r]))
	}
	order := sc.set.drain(sc.order[:0])
	sc.order = order
	lo, hi, count := densest(agg, c, order, w)
	clo, chi, _ := densest(agg, c, order[lo:hi], w/10)
	if fetch {
		flo, fhi, _ := densest(agg, c, order, 50*w)
		res.FetchRows = sc.keepFetch(len(sc.fetch), sc.rowsOf(c, order[flo:fhi], matched, sc.fetch))
	}
	res.MatchedCount = count
	sc.core = sc.rowsOf(c, order[lo+clo:lo+chi], matched, sc.core[:0])
	return sc.core
}

// densest finds, over order — positions in column c, ascending — the
// window of the given width with the maximum total membership count:
// order[lo:hi] and its count. Of equal counts the first window wins;
// with no positive count that is order[:1]. order must not be empty.
func densest(agg *Aggregate, c *sortedColumn, order []int, width float64) (lo, hi, count int) {
	bestLo, bestHi := 0, 0
	l, n := 0, 0
	for h, p := range order {
		n += agg.Counts[c.rows[p]]
		for c.vals[p]-c.vals[order[l]] > width {
			n -= agg.Counts[c.rows[order[l]]]
			l++
		}
		if n > count {
			bestLo, bestHi, count = l, h, n
		}
	}
	return bestLo, bestHi + 1, count
}

// rowsOf appends the rows at window, a sub-range of the matched rows'
// positions in column c, to out in ascending order. A window holding
// every matched row is matched itself, already ascending; any other is
// drained from the row bitmap.
func (sc *estimateScratch) rowsOf(c *sortedColumn, window []int, matched, out []int) []int {
	if len(window) == len(matched) {
		return append(out, matched...)
	}
	for _, p := range window {
		sc.set.add(int(c.rows[p]))
	}
	return sc.set.drain(out)
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

// estimateScratch holds working state for the estimator: a
// one-question call's pins, the matched rows, their positions in a tracked column, the bitmap that orders
// both, a tracked question's core rows, the variance inputs, the fetch
// rows of the results it produced, and, for the one-question calls, the
// rest of a chunk of results. Only fetch escapes into a MatchResult. An
// Evaluator keeps one scratch per chunk of questions in the caller's
// Results; the one-question calls recycle theirs through scratchPool,
// which keeps one per P, so per-question cost stays flat across epochs
// and concurrent questions share no lock (TestEstimatorScratchReuse
// pins this).
type estimateScratch struct {
	pins    []rules.Pin
	rows    []int
	order   []int
	core    []int
	fetch   []int
	set     bitmap
	results []MatchResult
	values  []float64
	weights []float64
}

var scratchPool = sync.Pool{New: func() any { return new(estimateScratch) }}

// resultChunk is how many MatchResults one allocation holds: a scratch
// hands them out one per question, and allocates the next chunk when its
// own runs out.
const resultChunk = 64

// result hands out the next unused MatchResult of sc's chunk, which the
// caller owns from then on; only the one-question calls use it. The
// scratch keeps the chunk's unused tail,
// and with it the results already handed out of that chunk, until the
// tail runs out or the pool drops the scratch; every caller keeps its
// results for one epoch at most, so this holds at most one chunk per P
// of otherwise dead results.
func (sc *estimateScratch) result() *MatchResult {
	if len(sc.results) == 0 {
		sc.results = make([]MatchResult, resultChunk)
	}
	res := &sc.results[0]
	sc.results = sc.results[1:]
	return res
}

// bitmap is a set of small non-negative integers — rows, or positions
// in a column — that lists its members in ascending order. Only
// words[lo:hi] can hold a set bit.
type bitmap struct {
	words  []uint64
	lo, hi int
}

// fit makes room for members below n. The set must be empty.
func (b *bitmap) fit(n int) {
	if w := (n + 63) >> 6; len(b.words) < w {
		b.words = make([]uint64, w)
	}
}

// add puts i in the set.
func (b *bitmap) add(i int) {
	w := i >> 6
	b.lo, b.hi = min(b.lo, w), max(b.hi, w+1)
	b.words[w] |= 1 << (i & 63)
}

// drain appends the members to out in ascending order and empties the
// set.
func (b *bitmap) drain(out []int) []int {
	for w := b.lo; w < b.hi; w++ {
		for word := b.words[w]; word != 0; word &= word - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
		}
		b.words[w] = 0
	}
	b.lo, b.hi = len(b.words), 0
	return out
}

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
