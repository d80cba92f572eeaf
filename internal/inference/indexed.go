package inference

import (
	"repro/internal/par"
	"repro/internal/rules"
)

// This file is the inference-side half of the ISSUE 6 question index:
// index-aware twins of EstimateSimilarity / RunFeedback / EvaluateAll
// that skip the O(centroids × fields) scan for questions the index
// proved unmatchable this epoch, while producing byte-identical
// results. The pruned path still runs the estimator's post-scan tail
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
	return ix.Candidates(agg.Rows(), agg.Representatives.Row)
}

// EstimateSimilarityIndexed is EstimateSimilarity with a candidacy
// verdict from the question index: candidate == false takes the pruned
// fast path. Callers must only pass false when the index was built
// with a τ bound covering q's evaluation threshold (QuestionIndex.Covers).
func EstimateSimilarityIndexed(agg *Aggregate, q *rules.Question, candidate bool) *MatchResult {
	if !candidate {
		return estimatePruned(agg, q)
	}
	return EstimateSimilarity(agg, q)
}

// RunFeedbackIndexed is RunFeedback with a candidacy verdict. The
// index bound must cover τ_d2 — the widest threshold either stage
// evaluates — for a false verdict to be sound.
func RunFeedbackIndexed(agg *Aggregate, q *rules.Question, cfg FeedbackConfig, fetcher RawPacketFetcher, matcher RawMatcher, candidate bool) (*FeedbackResult, error) {
	return runFeedback(agg, q, cfg, fetcher, matcher, candidate)
}

// StageFeedbackIndexed is the summary-side half of RunFeedbackIndexed
// for a caller that fetches raw packets itself — the controller, which
// pulls one round's uncertain centroids from all monitors at once
// instead of question by question. Unless the result's Verdict is
// VerdictUncertain it equals RunFeedbackIndexed's; an uncertain one is
// finished by FeedbackResult.Settle.
func StageFeedbackIndexed(agg *Aggregate, q *rules.Question, cfg FeedbackConfig, candidate bool) (*FeedbackResult, error) {
	return stageFeedback(agg, q, cfg, candidate)
}

// EvaluateAllIndexed runs every question against the aggregate through
// the index: one candidate-set computation, then the exact estimator
// on candidates only. ix must have been built over qs in order (entry
// i of the index is qs[i]) with bounds covering each question's
// DistanceThreshold; a nil ix degrades to the linear EvaluateAll.
// Results are byte-identical to EvaluateAll for every input.
func EvaluateAllIndexed(agg *Aggregate, qs []*rules.Question, ix *rules.QuestionIndex) []*MatchResult {
	return EvaluateAllIndexedParallel(agg, qs, ix, 1)
}

// EvaluateAllIndexedParallel is EvaluateAllIndexed fanned out across up
// to workers goroutines (0 = GOMAXPROCS). Like EvaluateAllParallel,
// result i is always the evaluation of qs[i] for every worker count.
func EvaluateAllIndexedParallel(agg *Aggregate, qs []*rules.Question, ix *rules.QuestionIndex, workers int) []*MatchResult {
	cs := Candidates(agg, ix)
	out := make([]*MatchResult, len(qs))
	par.For(len(qs), workers, func(i int) {
		out[i] = EstimateSimilarityIndexed(agg, qs[i], cs.Contains(i))
	})
	return out
}
