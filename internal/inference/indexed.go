package inference

import (
	"repro/internal/packet"
	"repro/internal/rules"
)

// This file is the inference-side half of the question index: the
// candidate set that lets the estimator skip the scan for questions the
// index proved unmatchable this epoch, while producing identical results
// (Evaluator.Evaluate and RunFeedbackIndexed take the same verdict).
// The pruned path still runs the estimator's post-scan tail
// (tracked-window narrowing of the empty set, the τ_c compare, the
// variance gate) so that every MatchResult field — not just the alert
// bit — matches the linear sweep exactly.

// Candidates evaluates the index against this aggregate's centroids
// and returns the epoch's candidate set. A nil index returns nil,
// whose Contains is always true — the linear scan.
func Candidates(agg *Aggregate, ix *rules.QuestionIndex) *rules.CandidateSet {
	if ix == nil {
		return nil
	}
	return ix.Candidates(func(f packet.FieldIndex) []float64 { return agg.column(f).vals })
}

// EstimateSimilarityIndexed is EstimateSimilarity with a candidacy
// verdict from the question index: candidate == false takes the pruned
// fast path. Callers must only pass false when the index was built
// with a τ bound at or above q's evaluation threshold. Like
// EstimateSimilarity, it stays only until ROADMAP D1.
func EstimateSimilarityIndexed(agg *Aggregate, q *rules.Question, candidate bool) *MatchResult {
	return estimateOne(agg, q, q.DistanceThreshold, candidate, false)
}
