package inference

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/rules"
	"repro/internal/summary"
)

// scaleAggregate builds a mixed benign+flood aggregate for the scale
// tests and benchmarks (testing.TB so benchmarks share it).
func scaleAggregate(tb testing.TB, seed int64, packets int) *Aggregate {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	mixed := append(benignHeaders(rng, packets*4/5), synFloodHeaders(rng, packets/5, 0x0A000001)...)
	s, err := summary.NewSummarizer(summary.Config{
		BatchSize: len(mixed), Rank: 12, Centroids: len(mixed) / 5, MinBatch: 1, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sum, err := s.Summarize(mixed, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	agg, err := AggregateSummaries([]*summary.Summary{sum})
	if err != nil {
		tb.Fatal(err)
	}
	return agg
}

// scaleQuestions generates and translates a seeded library.
func scaleQuestions(tb testing.TB, n int, seed int64) []*rules.Question {
	tb.Helper()
	qs, err := rules.GenerateQuestions(rules.GenConfig{Rules: n, Seed: seed}, rules.NewEnvironment(), rules.DefaultTranslateConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if len(qs) != n {
		tb.Fatalf("generated %d questions, want %d", len(qs), n)
	}
	return qs
}

// TestEvaluateAllIndexedEquivalence is the question index's acceptance
// property: the indexed sweep is byte-identical to the linear scan — the
// same MatchResult in every field, in the same order — across library
// scales and worker counts, through the one-question calls and through
// an Evaluator (which builds no fetch rows for plain questions).
func TestEvaluateAllIndexedEquivalence(t *testing.T) {
	scales := []int{100, 1000, 10000}
	if testing.Short() {
		scales = []int{100, 1000}
	}
	agg := scaleAggregate(t, 11, 1500)
	for _, n := range scales {
		t.Run(fmt.Sprintf("rules=%d", n), func(t *testing.T) {
			qs := scaleQuestions(t, n, 5)
			ix, err := rules.NewQuestionIndex(qs, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := linearSweepOracle(agg, qs)
			cs := Candidates(agg, ix)
			if cs.Count() >= len(qs) {
				t.Fatalf("index pruned nothing (%d/%d candidates)", cs.Count(), len(qs))
			}
			matched := 0
			for _, r := range want {
				if r.Matched {
					matched++
				}
			}
			if matched == 0 {
				t.Fatal("workload has no matching question — equivalence would be vacuous")
			}
			unfetched := withoutFetchRows(want)
			for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0), 0} {
				for path, got := range map[string][]*MatchResult{
					"one-question": fanOut(agg, qs, ix, workers),
					"evaluator":    evaluateAll(t, agg, qs, ix, workers),
				} {
					want := want
					if path == "evaluator" {
						want = unfetched
					}
					if len(got) != len(want) {
						t.Fatalf("%s, workers=%d: %d results, want %d", path, workers, len(got), len(want))
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("%s, workers=%d question %d (sid %d): indexed result diverged\nlinear:  %+v\nindexed: %+v",
								path, workers, i, qs[i].Rule.SID, want[i], got[i])
						}
					}
				}
			}
		})
	}
}

// TestEvaluateAllIndexedNilIndex: a nil index degrades to the linear
// scan instead of pruning anything.
func TestEvaluateAllIndexedNilIndex(t *testing.T) {
	agg := scaleAggregate(t, 12, 500)
	qs := scaleQuestions(t, 200, 6)
	want := linearSweepOracle(agg, qs)
	got := fanOut(agg, qs, nil, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil-index evaluation diverged from linear scan")
	}
}

// TestRunFeedbackIndexedEquivalence extends byte-identity through the
// two-stage feedback loop: with the index built at the τ_d2 bound, a
// run under the index's verdict, and the unpruned run (candidate ==
// true), must both reproduce the full FeedbackResult of two real sweeps
// over every centroid — verdicts, both stage results, fetch accounting
// — for every question.
func TestRunFeedbackIndexedEquivalence(t *testing.T) {
	agg := scaleAggregate(t, 13, 1200)
	qs := scaleQuestions(t, 1500, 9)
	cfgs := make([]FeedbackConfig, len(qs))
	maxTau := make([]float64, len(qs))
	for i, q := range qs {
		cfgs[i] = FeedbackConfig{TauD1: q.DistanceThreshold * 0.5, TauD2: q.DistanceThreshold * 2, CountScale2: 0.5}
		maxTau[i] = cfgs[i].TauD2
	}
	ix, err := rules.NewQuestionIndex(qs, maxTau)
	if err != nil {
		t.Fatal(err)
	}
	cs := Candidates(agg, ix)
	if cs.Count() >= len(qs) {
		t.Fatalf("index pruned nothing (%d/%d candidates)", cs.Count(), len(qs))
	}
	uncertain := 0
	for i, q := range qs {
		want := sweepFeedback(agg, q, cfgs[i])
		for _, candidate := range []bool{true, cs.Contains(i)} {
			got, err := RunFeedbackIndexed(agg, q, cfgs[i], nil, nil, candidate)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("question %d (sid %d, candidate=%v): feedback diverged\nlinear:  %+v\nindexed: %+v",
					i, q.Rule.SID, candidate, want, got)
			}
		}
		if want.Verdict == VerdictUncertain {
			uncertain++
		}
	}
	if uncertain == 0 {
		t.Fatal("no uncertain verdicts — feedback equivalence would miss the interesting case")
	}
}

// TestEvaluateAllParallelOrderPin10k is the determinism satellite:
// at 10k-rule scale the parallel sweep returns results in exactly the
// sequential order for every worker count.
func TestEvaluateAllParallelOrderPin10k(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	agg := scaleAggregate(t, 14, 1000)
	qs := scaleQuestions(t, n, 21)
	want := linearSweepOracle(agg, qs)
	for _, workers := range []int{1, 2, 3, 4, 8, runtime.GOMAXPROCS(0), 0} {
		got := fanOut(agg, qs, nil, workers)
		for i := range got {
			if got[i].Question != qs[i] {
				t.Fatalf("workers=%d: result %d is for the wrong question", workers, i)
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: result %d diverged from sequential", workers, i)
			}
		}
	}
}

// TestEstimatorScratchReuse pins the one-question calls' allocations:
// after pool warmup, a pruned question costs none and a matching
// question one — its FetchRows, copied out of the scratch. Results come
// 64 to an allocation from the pooled scratch, which AllocsPerRun's
// average rounds away; the matched rows, the bitmap that orders them, a
// tracked question's core rows, the fetch rows before their copy and the
// variance inputs come from the pool too. The race detector empties the
// pool at random, so under -race the bounds are the looser 1 and 12.
func TestEstimatorScratchReuse(t *testing.T) {
	agg := scaleAggregate(t, 15, 1000)
	qs := scaleQuestions(t, 500, 4)
	// Warm the pool and find a tracked and an untracked question with a
	// non-trivial match.
	var tracked, untracked *rules.Question
	for _, q := range qs {
		r := EstimateSimilarity(agg, q)
		switch {
		case len(r.FetchRows) > 3 && q.TrackBy >= 0:
			tracked = q
		case len(r.FetchRows) > 0 && q.TrackBy < 0:
			untracked = q
		}
	}
	if tracked == nil || untracked == nil {
		t.Fatalf("workload lacks a matching question: tracked %v, untracked %v", tracked != nil, untracked != nil)
	}
	pruned, matching := 0.0, 1.0
	if raceBuild {
		pruned, matching = 1, 12
	}
	if got := testing.AllocsPerRun(100, func() { EstimateSimilarityIndexed(agg, tracked, false) }); got > pruned {
		t.Errorf("pruned estimate: %.1f allocs/op, want ≤ %.0f (results must come from the pooled chunk)", got, pruned)
	}
	for name, q := range map[string]*rules.Question{"tracked": tracked, "untracked": untracked} {
		if got := testing.AllocsPerRun(100, func() { EstimateSimilarity(agg, q) }); got > matching {
			t.Errorf("%s estimate: %.1f allocs/op, want ≤ %.0f (scratch must come from the pool)", name, got, matching)
		}
	}
}

// benchSizes are the ISSUE 6 sweep points.
var benchSizes = []int{100, 1000, 10000}

// BenchmarkEvaluateAllLinear is the baseline: the unindexed sweep at
// equal centroid count.
func BenchmarkEvaluateAllLinear(b *testing.B) {
	agg := scaleAggregate(b, 16, 1500)
	for _, n := range benchSizes {
		qs := scaleQuestions(b, n, 5)
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				linearSweepOracle(agg, qs)
			}
		})
	}
}

// BenchmarkEvaluateAllIndexed measures what Controller.ProcessEpoch
// runs after aggregating: the per-epoch candidate-set computation and
// column sorts — every iteration gets a fresh Aggregate over the same
// rows — then one Evaluate into Results kept across iterations, as a
// controller's round keeps them (the index build and the evaluator's
// compile are per-library, not per-epoch, and happen before the
// timer). The two-worker leg runs the questions on two goroutines at
// once, so a lock or shared counter on the per-question path shows up
// as a two-worker time no better than the one-worker time.
func BenchmarkEvaluateAllIndexed(b *testing.B) {
	agg := scaleAggregate(b, 16, 1500)
	for _, n := range benchSizes {
		qs := scaleQuestions(b, n, 5)
		ix, err := rules.NewQuestionIndex(qs, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			ev, err := NewEvaluator(qs, nil, workers)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("rules=%d/workers=%d", n, workers), func(b *testing.B) {
				var res Results
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					epoch := &Aggregate{Representatives: agg.Representatives, Counts: agg.Counts, Refs: agg.Refs}
					ev.Evaluate(epoch, Candidates(epoch, ix), &res)
				}
			})
		}
	}
}

// BenchmarkQuestionIndexBuild measures the per-library build cost
// NewController pays once.
func BenchmarkQuestionIndexBuild(b *testing.B) {
	for _, n := range benchSizes {
		qs := scaleQuestions(b, n, 5)
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rules.NewQuestionIndex(qs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
