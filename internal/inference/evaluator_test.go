package inference

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/rules"
)

// evaluatorLibrary is a random library over windowQuestions: each
// question copied, then given at random a tracked field, a variance
// check, another τ_c and a feedback configuration. The pinless question
// stays pinless. fbs has one entry per question, nil for a plain one.
func evaluatorLibrary(tb testing.TB, rng *rand.Rand, seed int64) ([]*rules.Question, []*FeedbackConfig) {
	base := windowQuestions(tb, 1+seed%7)
	qs := make([]*rules.Question, len(base))
	fbs := make([]*FeedbackConfig, len(base))
	for i, b := range base {
		q := *b
		switch rng.Intn(3) {
		case 0:
			q.TrackBy = -1
		case 1:
			q.TrackBy = rng.Intn(packet.NumFields)
		}
		if rng.Intn(3) == 0 {
			q.Variance = &rules.VarianceCheck{Field: packet.FieldIndex(rng.Intn(packet.NumFields)), Threshold: []float64{0, 1e-4, 0.01}[rng.Intn(3)]}
		}
		if rng.Intn(2) == 0 {
			q.CountThreshold = rng.Intn(200)
		}
		qs[i] = &q
		if rng.Intn(2) == 0 {
			tau := q.DistanceThreshold
			fbs[i] = &FeedbackConfig{
				TauD1:       tau * []float64{0, 0.5, 1}[rng.Intn(3)],
				TauD2:       tau * []float64{1.5, 2, 6, math.Inf(1)}[rng.Intn(4)],
				CountScale2: []float64{0, 0.3, 0.55, 1}[rng.Intn(4)],
			}
		}
	}
	return qs, fbs
}

// specialAggregate plants an aggregate for qs (plantedAggregate) and then
// overwrites one cell in eight with NaN, ±Inf or −0.
func specialAggregate(rng *rand.Rand, n int, qs []*rules.Question) *Aggregate {
	agg := plantedAggregate(rng, n, qs)
	data := agg.Representatives.Data()
	for j := range data {
		if rng.Intn(8) == 0 {
			data[j] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[rng.Intn(4)]
		}
	}
	return agg
}

// diffMatch compares what a MatchResult decides — the count, Matched,
// the variance bits and VariancePassed — and, with fetch, the fetch
// rows; it returns "" when they agree.
func diffMatch(got, want *MatchResult, fetch bool) string {
	switch {
	case got.MatchedCount != want.MatchedCount || got.Matched != want.Matched:
		return fmt.Sprintf("count %d matched %v, want %d %v", got.MatchedCount, got.Matched, want.MatchedCount, want.Matched)
	case math.Float64bits(got.Variance) != math.Float64bits(want.Variance) || got.VariancePassed != want.VariancePassed:
		return fmt.Sprintf("variance %v passed %v, want %v %v", got.Variance, got.VariancePassed, want.Variance, want.VariancePassed)
	case fetch && fmt.Sprint(got.FetchRows) != fmt.Sprint(want.FetchRows):
		return fmt.Sprintf("fetch rows %v, want %v", got.FetchRows, want.FetchRows)
	}
	return ""
}

// checkEvaluatorEqualsSweep is FuzzEvaluatorEqualsSweep's body: a random
// library over two planted aggregates with NaN, ±Inf and −0 cells,
// pruned by a question index bounded at each question's widest
// threshold. For workers 1 and 2 one Results takes the first aggregate,
// then the second, then the first again, and after each Evaluate every
// question's result must equal the sweep's and the one-question call's:
// for a plain question EstimateSimilarityIndexed, for a feedback question
// RunFeedbackIndexed without a fetcher (which alerts where the
// evaluator, unsettled, leaves an uncertain verdict unalerted). Plain
// and stage-1 results carry no fetch rows; stage 2's equal the sweep's.
func checkEvaluatorEqualsSweep(t *testing.T, seed int64, rowsA, rowsB int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	qs, fbs := evaluatorLibrary(t, rng, seed)
	maxTau := make([]float64, len(qs))
	for i, q := range qs {
		maxTau[i] = q.DistanceThreshold
		if fbs[i] != nil {
			maxTau[i] = fbs[i].TauD2
		}
	}
	ix, err := rules.NewQuestionIndex(qs, maxTau)
	if err != nil {
		t.Fatal(err)
	}
	aggs := []*Aggregate{specialAggregate(rng, rowsA, qs), specialAggregate(rng, rowsB, qs)}
	sets := []*rules.CandidateSet{Candidates(aggs[0], ix), Candidates(aggs[1], ix)}
	fetched := 0
	for _, workers := range []int{1, 2} {
		ev, err := NewEvaluator(qs, fbs, workers)
		if err != nil {
			t.Fatal(err)
		}
		var res Results
		for _, a := range []int{0, 1, 0} {
			agg, cs := aggs[a], sets[a]
			ev.Evaluate(agg, cs, &res)
			for i, q := range qs {
				where := fmt.Sprintf("seed %d, workers %d, aggregate %d of %d rows, question %d", seed, workers, a, agg.Rows(), i)
				got := res.Match(i)
				if got.FetchRows != nil || got.Question != q {
					t.Fatalf("%s: result for %p with %d fetch rows, want %p with none", where, got.Question, len(got.FetchRows), q)
				}
				if fbs[i] == nil {
					if res.Feedback(i) != nil {
						t.Fatalf("%s: a plain question has a feedback result", where)
					}
					for ref, want := range map[string]*MatchResult{
						"sweep": sweepEstimate(agg, q, q.DistanceThreshold), "one-question": EstimateSimilarityIndexed(agg, q, cs.Contains(i)),
					} {
						if d := diffMatch(got, want, false); d != "" {
							t.Fatalf("%s: against the %s: %s", where, ref, d)
						}
					}
					continue
				}
				fb := res.Feedback(i)
				one, err := RunFeedbackIndexed(agg, q, *fbs[i], nil, nil, cs.Contains(i))
				if err != nil {
					t.Fatal(err)
				}
				if fb.Stage1 != got || fb.Question != q || fb.RawPackets != 0 {
					t.Fatalf("%s: feedback result %+v does not hold the question's stage 1", where, fb)
				}
				for ref, want := range map[string]*FeedbackResult{"sweep": sweepFeedback(agg, q, *fbs[i]), "one-question": one} {
					if d := diffMatch(fb.Stage1, want.Stage1, false); d != "" {
						t.Fatalf("%s: stage 1 against the %s: %s", where, ref, d)
					}
					if d := diffMatch(fb.Stage2, want.Stage2, true); d != "" {
						t.Fatalf("%s: stage 2 against the %s: %s", where, ref, d)
					}
					if fb.Verdict != want.Verdict || fb.Alerted != (want.Alerted && want.Verdict != VerdictUncertain) {
						t.Fatalf("%s: verdict %v alerted %v against the %s's %v %v", where, fb.Verdict, fb.Alerted, ref, want.Verdict, want.Alerted)
					}
				}
				fetched += len(fb.Stage2.FetchRows)
			}
		}
	}
	if rowsA+rowsB >= 64 && fetched == 0 {
		t.Fatalf("seed %d, %d and %d rows: no stage 2 fetched a row — the comparison is vacuous", seed, rowsA, rowsB)
	}
}

// FuzzEvaluatorEqualsSweep lets the fuzzer pick the library and the two
// aggregates' seed and sizes.
func FuzzEvaluatorEqualsSweep(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(40))
	f.Add(int64(2), uint16(0), uint16(900))
	f.Add(int64(3), uint16(7), uint16(1))
	f.Add(int64(4), uint16(500), uint16(500))
	f.Fuzz(func(t *testing.T, seed int64, rowsA, rowsB uint16) {
		checkEvaluatorEqualsSweep(t, seed, int(rowsA%1024), int(rowsB%1024))
	})
}

// TestEvaluatorSteadyStateAllocs pins what an epoch's evaluation costs
// a controller that keeps its round: once Results and their scratch
// have grown, a second Evaluate of a 10k-question library, a tenth of
// it on the two-stage loop, allocates at most once (the fan-out's
// closure) — no result, row set, fetch row or scratch. Under -race the
// worker pool's task comes from a sync.Pool the detector empties at
// random, which may add one.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	agg := scaleAggregate(t, 15, 1000)
	qs := scaleQuestions(t, 10000, 4)
	fbs := make([]*FeedbackConfig, len(qs))
	maxTau := make([]float64, len(qs))
	for i, q := range qs {
		maxTau[i] = q.DistanceThreshold
		if i%10 == 0 {
			fbs[i] = &FeedbackConfig{TauD1: q.DistanceThreshold / 2, TauD2: 2 * q.DistanceThreshold, CountScale2: 0.5}
			maxTau[i] = fbs[i].TauD2
		}
	}
	ix, err := rules.NewQuestionIndex(qs, maxTau)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(qs, fbs, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := Candidates(agg, ix)
	var res Results
	ev.Evaluate(agg, cs, &res)
	matched, fetched := 0, 0
	for i := range qs {
		if res.Match(i).Matched {
			matched++
		}
	}
	for _, fb := range res.Feedbacks() {
		fetched += len(fb.Stage2.FetchRows)
	}
	if matched == 0 || fetched == 0 {
		t.Fatalf("%d questions matched and stage 2 fetched %d rows; the bound would hold vacuously", matched, fetched)
	}
	bound := 1.0
	if raceBuild {
		bound = 2
	}
	if got := testing.AllocsPerRun(5, func() { ev.Evaluate(agg, cs, &res) }); got > bound {
		t.Fatalf("a second Evaluate allocates %.1f times, want ≤ %.0f", got, bound)
	}
}

// TestNewEvaluatorRejects: a library with a nil question, a feedback
// slice of another length, or a feedback configuration Validate rejects
// does not compile.
func TestNewEvaluatorRejects(t *testing.T) {
	q := scaleQuestions(t, 1, 3)[0]
	for name, build := range map[string]func() (*Evaluator, error){
		"nil question":   func() (*Evaluator, error) { return NewEvaluator([]*rules.Question{q, nil}, nil, 1) },
		"short feedback": func() (*Evaluator, error) { return NewEvaluator([]*rules.Question{q, q}, []*FeedbackConfig{nil}, 1) },
		"degenerate band": func() (*Evaluator, error) {
			return NewEvaluator([]*rules.Question{q}, []*FeedbackConfig{{TauD1: 0.1, TauD2: 0.1}}, 1)
		},
	} {
		if _, err := build(); err == nil {
			t.Errorf("%s: NewEvaluator accepted it", name)
		}
	}
	if _, err := NewEvaluator([]*rules.Question{q}, []*FeedbackConfig{nil}, 1); err != nil {
		t.Errorf("a plain question: %v", err)
	}
}
