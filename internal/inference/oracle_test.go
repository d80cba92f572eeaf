package inference

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/par"
	"repro/internal/rules"
)

// sweepEstimate is Algorithm 1 as the paper writes it and as this package
// ran it before the estimator pruned by row windows: d_q against every
// representative, row after row, then the post-scan tail as it ran
// before the tracked field was sorted once — maxWindowCount per window.
// It is the reference the estimator core is compared with, through
// estimateOne and through an Evaluator.
func sweepEstimate(agg *Aggregate, q *rules.Question, tauD float64) *MatchResult {
	res := &MatchResult{Question: q, VariancePassed: true}
	var matched []int
	for i := 0; i < agg.Rows(); i++ {
		if q.Distance(agg.Representatives.Row(i)) <= tauD {
			res.MatchedCount += agg.Counts[i]
			matched = append(matched, i)
		}
	}
	core := matched
	res.FetchRows = matched
	if q.TrackBy >= 0 && q.TrackBy < packet.NumFields {
		field := packet.FieldIndex(q.TrackBy)
		w := trackWindow(q)
		var window []int
		window, res.MatchedCount = maxWindowCount(agg, matched, field, w)
		core, _ = maxWindowCount(agg, window, field, w/10)
		res.FetchRows, _ = maxWindowCount(agg, matched, field, 50*w)
	}
	res.Matched = res.MatchedCount >= q.CountThreshold
	if q.Variance != nil {
		res.Variance = MatchedVariance(agg, core, q.Variance.Field)
		res.VariancePassed = res.Variance >= q.Variance.Threshold
	}
	return res
}

// fv pairs a matched row with its tracked-field value for the window
// sort.
type fv struct {
	row int
	val float64
}

// maxWindowCount finds, over the given rows sorted by the tracked field
// (ties by row), the window of the given width with the maximum total
// membership count, and returns the rows inside it, ascending, and their
// count. Each call sorts its own copy of the rows.
func maxWindowCount(agg *Aggregate, rows []int, field packet.FieldIndex, width float64) ([]int, int) {
	if len(rows) == 0 {
		return nil, 0
	}
	vals := make([]fv, len(rows))
	for i, r := range rows {
		vals[i] = fv{row: r, val: agg.Representatives.At(r, int(field))}
	}
	slices.SortFunc(vals, func(a, b fv) int {
		if c := cmp.Compare(a.val, b.val); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})

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
	slices.Sort(out)
	return out, bestCount
}

// sweepFeedback is the two-stage result a full sweep at τ_d1 and τ_d2
// yields when no raw packets can be fetched (an uncertain verdict then
// alerts): the reference for RunFeedbackIndexed with a nil fetcher.
func sweepFeedback(agg *Aggregate, q *rules.Question, cfg FeedbackConfig) *FeedbackResult {
	s1 := sweepEstimate(agg, q, cfg.TauD1)
	s2 := sweepEstimate(agg, cfg.stage2Question(q), cfg.TauD2)
	t1, t2 := s1.Alerted(), s2.Matched
	return &FeedbackResult{Question: q, Stage1: s1, Stage2: s2, Verdict: classifyVerdict(t1, t2), Alerted: t1 || t2}
}

// linearSweepOracle is the reference every indexed result is compared
// against: the full sweep for every question, one after the other, no
// index and no row windows.
func linearSweepOracle(agg *Aggregate, qs []*rules.Question) []*MatchResult {
	out := make([]*MatchResult, len(qs))
	for i, q := range qs {
		out[i] = sweepEstimate(agg, q, q.DistanceThreshold)
	}
	return out
}

// fanOut evaluates the questions the way bench/probe.go does: one
// candidate-set computation, then EstimateSimilarityIndexed per question
// across up to workers goroutines, result i in slot i. A nil index
// prunes nothing.
func fanOut(agg *Aggregate, qs []*rules.Question, ix *rules.QuestionIndex, workers int) []*MatchResult {
	cs := Candidates(agg, ix)
	out := make([]*MatchResult, len(qs))
	par.For(len(qs), workers, func(i int) {
		out[i] = EstimateSimilarityIndexed(agg, qs[i], cs.Contains(i))
	})
	return out
}

// evaluateAll evaluates the questions the way Controller.ProcessEpoch
// does: one candidate-set computation, then one Evaluate over a library
// compiled with the given worker bound. It returns copies of the results.
func evaluateAll(tb testing.TB, agg *Aggregate, qs []*rules.Question, ix *rules.QuestionIndex, workers int) []*MatchResult {
	tb.Helper()
	ev, err := NewEvaluator(qs, nil, workers)
	if err != nil {
		tb.Fatal(err)
	}
	var res Results
	ev.Evaluate(agg, Candidates(agg, ix), &res)
	out := make([]*MatchResult, len(qs))
	for i := range out {
		m := *res.Match(i)
		out[i] = &m
	}
	return out
}

// withoutFetchRows returns copies of rs with FetchRows dropped: what an
// Evaluator returns for plain questions, which nothing fetches for.
func withoutFetchRows(rs []*MatchResult) []*MatchResult {
	out := make([]*MatchResult, len(rs))
	for i, r := range rs {
		m := *r
		m.FetchRows = nil
		out[i] = &m
	}
	return out
}
