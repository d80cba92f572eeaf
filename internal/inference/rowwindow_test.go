package inference

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/summary"
)

// windowQuestions is the library the window tests evaluate: generated
// questions (host-, port- and flag-pinned), a tracked one, one with a
// variance check, and one that constrains no field at all.
func windowQuestions(tb testing.TB, seed int64) []*rules.Question {
	tb.Helper()
	qs := scaleQuestions(tb, 40, seed)
	free := *qs[0]
	free.Vector = make([]float64, packet.NumFields)
	for f := range free.Vector {
		free.Vector[f] = rules.Irrelevant
	}
	tracked := *qs[1]
	tracked.TrackBy = int(packet.FieldDstIP)
	checked := *qs[2]
	checked.Variance = &rules.VarianceCheck{Field: packet.FieldSrcIP, Threshold: 1e-4}
	return append(qs, &free, &tracked, &checked)
}

// plantedAggregate fabricates n centroids around the questions' points:
// some exactly on a question, some one budget (or a hair more, or less)
// off it on one field, some copies of another row, some with fields
// outside [0, 1], the rest uniform noise; a fifth of the counts are zero.
func plantedAggregate(rng *rand.Rand, n int, qs []*rules.Question) *Aggregate {
	reps := linalg.NewMatrix(n, packet.NumFields)
	counts := make([]int, n)
	refs := make([]CentroidRef, n)
	for i := 0; i < n; i++ {
		row := reps.Row(i)
		for f := range row {
			row[f] = rng.Float64()
		}
		q := qs[rng.Intn(len(qs))]
		active := q.ActiveFields()
		switch kind := rng.Intn(6); {
		case kind == 0 && i > 0:
			copy(row, reps.Row(rng.Intn(i)))
		case kind <= 2 && len(active) > 0:
			for _, f := range active {
				row[f] = q.Vector[f]
			}
			if kind == 2 {
				// The whole Eq. 5 budget spent on one field, scaled to
				// land on, just inside and just outside the threshold.
				f := active[rng.Intn(len(active))]
				off := q.DistanceThreshold * float64(len(active)) * []float64{0.5, 1, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6, 2}[rng.Intn(6)]
				if rng.Intn(2) == 0 {
					off = -off
				}
				row[f] += off
			}
		case kind == 3:
			row[rng.Intn(len(row))] = []float64{-0.25, -1e-9, 1 + 1e-9, 1.5}[rng.Intn(4)]
		}
		if rng.Intn(5) > 0 {
			counts[i] = 1 + rng.Intn(40)
		}
		refs[i] = CentroidRef{MonitorID: i % 3, Epoch: 1, Centroid: i}
	}
	return &Aggregate{Representatives: reps, Counts: counts, Refs: refs}
}

// sameResult is reflect.DeepEqual with the variance compared by bits,
// so a NaN variance equals itself.
func sameResult(a, b *MatchResult) bool {
	x, y := *a, *b
	if math.Float64bits(x.Variance) != math.Float64bits(y.Variance) {
		return false
	}
	x.Variance, y.Variance = 0, 0
	return reflect.DeepEqual(x, y)
}

// checkEstimateEqualsSweep is the body TestEstimateWindowEqualsSweep and
// FuzzEstimateEqualsSweep share: over an aggregate of n planted rows,
// the window-pruned estimator returns, for every question and threshold,
// the MatchResult of a sweep over every row — every field of it.
func checkEstimateEqualsSweep(t *testing.T, seed int64, n int, extraTau float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	qs := windowQuestions(t, 1+seed%7)
	agg := plantedAggregate(rng, n, qs)
	matched := 0
	for qi, q := range qs {
		taus := []float64{0, q.DistanceThreshold, 6 * q.DistanceThreshold, 0.05, 0.5, math.Inf(1), math.NaN(), -1, extraTau}
		for _, tau := range taus {
			want := sweepEstimate(agg, q, tau)
			got := estimateOne(agg, q, tau, true)
			if !sameResult(got, want) {
				t.Fatalf("seed %d, %d rows, question %d, τ=%v: window-pruned result differs from the sweep\nsweep:  %+v\nwindow: %+v",
					seed, n, qi, tau, want, got)
			}
			matched += len(want.FetchRows)
		}
	}
	if n >= 7 && matched == 0 {
		t.Fatalf("seed %d, %d rows: nothing matched — the comparison is vacuous", seed, n)
	}
}

// TestEstimateWindowEqualsSweep pins the exactness of the row windows:
// aggregates of 0, 1, 7 and ~900 rows with centroids planted on and
// around the question points.
func TestEstimateWindowEqualsSweep(t *testing.T) {
	for _, n := range []int{0, 1, 7, 900} {
		for seed := int64(1); seed <= 3; seed++ {
			checkEstimateEqualsSweep(t, seed, n, 1e-4)
		}
	}
	// The zero Aggregate is an empty one.
	for _, q := range windowQuestions(t, 1) {
		if got, want := estimateOne(&Aggregate{}, q, math.Inf(1), true), sweepEstimate(&Aggregate{}, q, math.Inf(1)); !sameResult(got, want) {
			t.Fatalf("zero aggregate: %+v, want %+v", got, want)
		}
	}
}

// FuzzEstimateEqualsSweep lets the fuzzer pick the planting seed, the
// aggregate size and one more threshold (any bit pattern).
func FuzzEstimateEqualsSweep(f *testing.F) {
	f.Add(int64(1), uint16(7), math.Float64bits(0.01))
	f.Add(int64(2), uint16(300), math.Float64bits(math.Inf(-1)))
	f.Add(int64(3), uint16(64), math.Float64bits(5e-324))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, tauBits uint64) {
		checkEstimateEqualsSweep(t, seed, int(rows%1024), math.Float64frombits(tauBits))
	})
}

// referenceRepresentatives reconstructs a split summary the way
// Summary.Representatives did before the aggregate slab: a zeroed row,
// then one strided pass over V per retained singular value.
func referenceRepresentatives(s *summary.Summary) *linalg.Matrix {
	if s.Kind == summary.KindCombined {
		return s.Centroids
	}
	k, p := s.Centroids.Rows(), s.V.Rows()
	out := linalg.NewMatrix(k, p)
	for i := 0; i < k; i++ {
		ui, oi := s.Centroids.Row(i), out.Row(i)
		for t := 0; t < s.Rank; t++ {
			us := ui[t] * s.Sigma[t]
			if us == 0 {
				continue
			}
			for j := 0; j < p; j++ {
				oi[j] += float64(us * s.V.At(j, t))
			}
		}
	}
	return out
}

// TestAggregateSlabBitIdentical: the slab the aggregator writes holds,
// bit for bit, the representatives the summaries reconstruct to —
// combined and split, with zeroed singular directions — and refs,
// counts and accounting are what row-by-row aggregation produced; what
// Add rejected it still rejects, leaving the aggregator untouched.
func TestAggregateSlabBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func(n, k int, monitor int) *summary.Summary {
		szr, err := summary.NewSummarizer(summary.Config{BatchSize: n, Rank: 12, Centroids: k, MinBatch: 1, Seed: int64(k)})
		if err != nil {
			t.Fatal(err)
		}
		s, err := szr.Summarize(benignHeaders(rng, n), monitor, 9)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ss := []*summary.Summary{mk(400, 80, 0), mk(120, 20, 1), mk(500, 100, 2)}
	if ss[0].Kind != summary.KindSplit || ss[1].Kind != summary.KindCombined {
		t.Fatalf("want a split and a combined summary, got %v and %v", ss[0].Kind, ss[1].Kind)
	}
	// A dead singular direction and a dead centroid coordinate take the
	// skip branch of the reconstruction.
	ss[2].Sigma[3] = 0
	ss[2].Centroids.Row(5)[0] = 0

	agg, err := AggregateSummaries(ss)
	if err != nil {
		t.Fatal(err)
	}
	row, elems, total := 0, 0, 0
	for _, s := range ss {
		want := referenceRepresentatives(s)
		got, err := s.Representatives()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < want.Rows(); i++ {
			for j, w := range want.Row(i) {
				if math.Float64bits(agg.Representatives.At(row, j)) != math.Float64bits(w) ||
					math.Float64bits(got.At(i, j)) != math.Float64bits(w) {
					t.Fatalf("monitor %d centroid %d field %d: slab %v, Representatives %v, reference %v",
						s.MonitorID, i, j, agg.Representatives.At(row, j), got.At(i, j), w)
				}
			}
			if agg.Counts[row] != s.Counts[i] || agg.Refs[row] != (CentroidRef{MonitorID: s.MonitorID, Epoch: 9, Centroid: i}) {
				t.Fatalf("row %d: count %d ref %+v", row, agg.Counts[row], agg.Refs[row])
			}
			total += s.Counts[i]
			row++
		}
		elems += s.Elements()
	}
	if agg.Rows() != row || agg.Elements != elems || agg.TotalPackets != total {
		t.Fatalf("rows %d elements %d packets %d, want %d %d %d", agg.Rows(), agg.Elements, agg.TotalPackets, row, elems, total)
	}

	narrow := *ss[1]
	narrow.Centroids = linalg.NewMatrix(narrow.K(), packet.NumFields-1)
	shortV := *ss[0]
	shortV.V = linalg.NewMatrix(packet.NumFields-1, shortV.Rank)
	thinSigma := *ss[0]
	thinSigma.Sigma = thinSigma.Sigma[:thinSigma.Rank-1]
	miscounted := *ss[0]
	miscounted.Counts = miscounted.Counts[1:]
	unknown := *ss[0]
	unknown.Kind = summary.Kind(99)
	g := &Aggregator{}
	if err := g.Add(ss[1]); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*summary.Summary{
		"combined summary 17 fields wide": &narrow, "V with 17 rows": &shortV, "Σ shorter than the rank": &thinSigma,
		"one count too few": &miscounted, "unknown kind": &unknown,
	} {
		if err := g.Add(bad); err == nil {
			t.Errorf("Add accepted a summary with %s", name)
		}
	}
	after := g.Build()
	only, err := AggregateSummaries(ss[1:2])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Representatives.Data(), only.Representatives.Data()) || !reflect.DeepEqual(after.Counts, only.Counts) ||
		!reflect.DeepEqual(after.Refs, only.Refs) || after.Elements != only.Elements || after.TotalPackets != only.TotalPackets {
		t.Fatal("a rejected Add left something behind in the aggregator")
	}
}

// TestSortedColumnBuiltOnce: the first use of a column from many
// goroutines at once sorts it once, and every goroutine sees that one
// set of slices — values, rows and ranks — while others are already
// estimating over it.
func TestSortedColumnBuiltOnce(t *testing.T) {
	qs := windowQuestions(t, 2)
	agg := plantedAggregate(rand.New(rand.NewSource(8)), 500, qs)
	const goroutines = 16
	vals := make([][]float64, goroutines)
	rows := make([][]int32, goroutines)
	ranks := make([][]int32, goroutines)
	results := make([][]*MatchResult, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			c := agg.column(packet.FieldDstPort)
			vals[g], rows[g], ranks[g] = c.vals, c.rows, c.rank
			for _, q := range qs {
				results[g] = append(results[g], EstimateSimilarity(agg, q))
			}
		}(g)
	}
	start.Done()
	done.Wait()
	if !sort.Float64sAreSorted(vals[0]) || len(vals[0]) != agg.Rows() {
		t.Fatalf("column of %d values, sorted %v, for %d rows", len(vals[0]), sort.Float64sAreSorted(vals[0]), agg.Rows())
	}
	for i, r := range rows[0] {
		if agg.Representatives.At(int(r), int(packet.FieldDstPort)) != vals[0][i] {
			t.Fatalf("column entry %d: value %v is not row %d's", i, vals[0][i], r)
		}
		if ranks[0][r] != int32(i) {
			t.Fatalf("rank of row %d is %d, want its column position %d", r, ranks[0][r], i)
		}
	}
	for g := 1; g < goroutines; g++ {
		if &vals[g][0] != &vals[0][0] || &rows[g][0] != &rows[0][0] || &ranks[g][0] != &ranks[0][0] {
			t.Fatalf("goroutine %d saw a different build of the column", g)
		}
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Fatalf("goroutine %d estimated differently", g)
		}
	}
}

// TestCandidatesOverSharedColumns: the index reading the aggregate's
// shared columns returns the candidate set it returned when it copied
// and sorted each column itself.
func TestCandidatesOverSharedColumns(t *testing.T) {
	agg := scaleAggregate(t, 11, 1500)
	qs := scaleQuestions(t, 2000, 5)
	ix, err := rules.NewQuestionIndex(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ix.Candidates(func(f packet.FieldIndex) []float64 {
		col := agg.Representatives.Col(int(f))
		sort.Float64s(col)
		return col
	})
	got := Candidates(agg, ix)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("candidates over the shared columns: %d set, want %d", got.Count(), want.Count())
	}
	if got.Count() == 0 || got.Count() == len(qs) {
		t.Fatalf("%d of %d candidates — the comparison is vacuous", got.Count(), len(qs))
	}
}
