package inference

import (
	"repro/internal/par"
	"repro/internal/rules"
)

// linearSweepOracle is the reference every indexed result is compared
// against: Algorithm 1 for every question, one after the other, no
// index.
func linearSweepOracle(agg *Aggregate, qs []*rules.Question) []*MatchResult {
	out := make([]*MatchResult, len(qs))
	for i, q := range qs {
		out[i] = EstimateSimilarity(agg, q)
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
