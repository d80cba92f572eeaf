package inference

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/par"
	"repro/internal/rules"
)

// Evaluator runs Algorithm 1, and for the questions that have one the
// two-stage loop of §5.3, for a fixed library of questions against each
// round's aggregate. Everything a question's evaluation needs that does
// not depend on the aggregate is compiled once, in NewEvaluator: its
// pins (all questions' in one slab), the τ_d and rules.MatchBudget of
// each stage it runs, a feedback question's stage-2 question with the
// relaxed τ_c, and whether anything reads a stage's fetch rows — only
// stage 2 of a feedback question, whose rows the raw re-analysis pulls.
//
// An Evaluator is read-only after NewEvaluator, so any number of rounds
// may evaluate with it at once; each brings its own Results.
type Evaluator struct {
	// pins holds every question's pins, back to back; each stage's pins
	// are a sub-slice of it.
	pins  []rules.Pin
	plans []plan
	// stage2 is stage 2 of each feedback question, in question order.
	stage2 []stage
	// workers bounds the fan-out (0 = GOMAXPROCS); chunk is how many
	// consecutive questions share one scratch.
	workers int
	chunk   int
}

// plan is one question, compiled: the stage it always runs (the plain
// evaluation, or stage 1 of a feedback question) and, for a feedback
// question, the index of its stage 2 in Evaluator.stage2 and of its
// results in Results (−1 for a plain question).
type plan struct {
	stage
	fb int32
}

// chunksPerWorker is how many scratches the fan-out keeps per worker: a
// round claims chunks of questions, each worked in one scratch, so more
// chunks balance uneven questions better and fewer keep less scratch
// memory.
const chunksPerWorker = 16

// NewEvaluator compiles qs, in the order the results will come in.
// feedback is nil or has one entry per question: a non-nil entry gives
// that question the two-stage loop with that configuration, which must
// be valid. workers bounds how many questions Evaluate runs at once
// (0 = GOMAXPROCS); the results do not depend on it.
func NewEvaluator(qs []*rules.Question, feedback []*FeedbackConfig, workers int) (*Evaluator, error) {
	if feedback != nil && len(feedback) != len(qs) {
		return nil, fmt.Errorf("inference: %d questions but %d feedback entries", len(qs), len(feedback))
	}
	var buf [packet.NumFields]rules.Pin
	pinCount := 0
	for i, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("inference: question %d is nil", i)
		}
		pinCount += len(q.AppendPins(buf[:0]))
	}
	e := &Evaluator{
		pins:    make([]rules.Pin, 0, pinCount),
		plans:   make([]plan, len(qs)),
		workers: workers,
	}
	for i, q := range qs {
		start := len(e.pins)
		e.pins = q.AppendPins(e.pins)
		pins := e.pins[start:len(e.pins):len(e.pins)]
		e.plans[i] = plan{stage: compileStage(q, pins, q.DistanceThreshold, false), fb: -1}
		if feedback == nil || feedback[i] == nil {
			continue
		}
		cfg := *feedback[i]
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("inference: question %d: %w", i, err)
		}
		e.plans[i].fb = int32(len(e.stage2))
		e.plans[i].stage = compileStage(q, pins, cfg.TauD1, false)
		e.stage2 = append(e.stage2, compileStage(cfg.stage2Question(q), pins, cfg.TauD2, true))
	}
	w := workers
	if w <= 0 || w > par.Size() {
		w = par.Size()
	}
	chunks := w * chunksPerWorker
	e.chunk = max((len(qs)+chunks-1)/chunks, 1)
	return e, nil
}

// compileStage compiles one stage of q, whose pins are pins, at τ_d.
func compileStage(q *rules.Question, pins []rules.Pin, tauD float64, fetch bool) stage {
	return stage{q: q, pins: pins, tauD: tauD, budget: rules.MatchBudget(tauD, len(pins)), fetch: fetch}
}

// Results is the storage of one round's evaluation: one MatchResult per
// question, a FeedbackResult and a stage-2 MatchResult per feedback
// question, and the scratch each chunk of questions works in. Keep it
// across rounds: Evaluate reuses all of it, so a round that keeps its
// Results evaluates without allocating once the scratch has grown to
// the round's size. What Evaluate wrote, FetchRows included, stays valid
// until the next Evaluate into the same Results. The zero Results is
// ready to use.
type Results struct {
	ev      *Evaluator
	match   []MatchResult
	stage2  []MatchResult
	fb      []FeedbackResult
	scratch []estimateScratch
}

// Match returns question i's result: its single-threshold evaluation,
// or stage 1 of its feedback loop. FetchRows is nil.
func (r *Results) Match(i int) *MatchResult { return &r.match[i] }

// Feedback returns question i's two-stage result, or nil for a question
// without a feedback configuration. An uncertain result is not settled:
// Alerted is false until Settle re-analyzes the raw packets behind
// Stage2.FetchRows.
func (r *Results) Feedback(i int) *FeedbackResult {
	if k := r.ev.plans[i].fb; k >= 0 {
		return &r.fb[k]
	}
	return nil
}

// Feedbacks returns every feedback question's result, in question
// order.
func (r *Results) Feedbacks() []FeedbackResult { return r.fb }

// Evaluate runs every question against agg into out. cs is the question
// index's candidate set over the same questions in the same order (nil
// prunes nothing); a question it excludes runs the post-scan tail on an
// empty match, which gives the scan's result. The questions fan out over
// the worker pool a chunk at a time; each writes only its own results,
// so they do not depend on the worker count.
func (e *Evaluator) Evaluate(agg *Aggregate, cs *rules.CandidateSet, out *Results) {
	if out.ev != e {
		*out = Results{
			ev:      e,
			match:   make([]MatchResult, len(e.plans)),
			stage2:  make([]MatchResult, len(e.stage2)),
			fb:      make([]FeedbackResult, len(e.stage2)),
			scratch: make([]estimateScratch, (len(e.plans)+e.chunk-1)/e.chunk),
		}
	}
	par.For(len(out.scratch), e.workers, func(c int) {
		sc := &out.scratch[c]
		sc.fetch = sc.fetch[:0]
		for i := c * e.chunk; i < min((c+1)*e.chunk, len(e.plans)); i++ {
			p := &e.plans[i]
			candidate := cs.Contains(i)
			s1 := &out.match[i]
			sc.estimate(agg, &p.stage, candidate, s1)
			if p.fb < 0 {
				continue
			}
			s2 := &out.stage2[p.fb]
			sc.estimate(agg, &e.stage2[p.fb], candidate, s2)
			fb := &out.fb[p.fb]
			*fb = FeedbackResult{Question: p.q, Stage1: s1, Stage2: s2}
			fb.decide()
		}
	})
}
