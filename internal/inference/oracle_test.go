package inference

import (
	"repro/internal/par"
	"repro/internal/rules"
)

// sweepEstimate is Algorithm 1 as the paper writes it and as this package
// ran it before the estimator pruned by row windows: d_q against every
// representative, row after row, then the shared post-scan tail. It is
// the reference estimateWithThreshold is compared with.
func sweepEstimate(agg *Aggregate, q *rules.Question, tauD float64) *MatchResult {
	res := &MatchResult{Question: q, VariancePassed: true}
	for i := 0; i < agg.Rows(); i++ {
		if q.Distance(agg.Representatives.Row(i)) <= tauD {
			res.MatchedCount += agg.Counts[i]
			res.MatchedRows = append(res.MatchedRows, i)
		}
	}
	return finishEstimate(agg, q, res)
}

// sweepFeedback is the two-stage result a full sweep at τ_d1 and τ_d2
// yields when no raw packets can be fetched (an uncertain verdict then
// alerts): the reference for RunFeedbackIndexed with a nil fetcher.
func sweepFeedback(agg *Aggregate, q *rules.Question, cfg FeedbackConfig) *FeedbackResult {
	s1 := sweepEstimate(agg, q, cfg.TauD1)
	s2 := sweepEstimate(agg, q.WithCountThreshold(cfg.stage2CountThreshold(q.CountThreshold)), cfg.TauD2)
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

// fanOut evaluates the questions the way Controller.ProcessEpoch does:
// one candidate-set computation, then EstimateSimilarityIndexed per
// question across up to workers goroutines, result i in slot i. A nil
// index prunes nothing.
func fanOut(agg *Aggregate, qs []*rules.Question, ix *rules.QuestionIndex, workers int) []*MatchResult {
	cs := Candidates(agg, ix)
	out := make([]*MatchResult, len(qs))
	par.For(len(qs), workers, func(i int) {
		out[i] = EstimateSimilarityIndexed(agg, qs[i], cs.Contains(i))
	})
	return out
}
