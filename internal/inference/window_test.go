package inference

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/packet"
	"repro/internal/rules"
)

// buildAggregate fabricates an aggregate with given (dstIP value, count)
// pairs; all other fields are SYN-signature-exact so a flag question
// matches every row.
func buildAggregate(t *testing.T, rows []struct {
	dst   float64
	count int
}) *Aggregate {
	t.Helper()
	reps := linalg.NewMatrix(len(rows), packet.NumFields)
	counts := make([]int, len(rows))
	refs := make([]CentroidRef, len(rows))
	for i, r := range rows {
		row := reps.Row(i)
		row[packet.FieldProtocol] = packet.Normalize(packet.FieldProtocol, packet.ProtoTCP)
		row[packet.FieldSYN] = 1
		row[packet.FieldDstIP] = r.dst
		counts[i] = r.count
		refs[i] = CentroidRef{MonitorID: 0, Epoch: 0, Centroid: i}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return &Aggregate{Representatives: reps, Counts: counts, Refs: refs, TotalPackets: total}
}

func trackedSYNQuestion(t *testing.T, tauC int, window float64) *rules.Question {
	t.Helper()
	r, err := rules.Parse(`alert tcp any any -> any any (flags:S; detection_filter: track by_dst, count 1, seconds 2; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := rules.Translate(r, nil, rules.DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	q = q.WithCountThreshold(tauC).WithDistanceThreshold(0.05)
	q.TrackWindow = window
	return q
}

// fetchStage returns stage 2 of q's feedback loop at q's own τ_d with a
// relaxed τ_c: the one stage that builds fetch rows.
func fetchStage(t *testing.T, agg *Aggregate, q *rules.Question) *MatchResult {
	t.Helper()
	tau := q.DistanceThreshold
	res, err := RunFeedbackIndexed(agg, q, FeedbackConfig{TauD1: tau, TauD2: tau, CountScale2: 0.5}, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stage2
}

func TestTrackedCountPicksDensestWindow(t *testing.T) {
	// Three destination clusters: two at nearly the same dst (a victim),
	// one far away with a larger single count.
	agg := buildAggregate(t, []struct {
		dst   float64
		count int
	}{
		{0.100000, 40},
		{0.100005, 45}, // within the window of the first
		{0.500000, 60},
	})
	q := trackedSYNQuestion(t, 1, 1e-4)
	m := fetchStage(t, agg, q)
	if m.MatchedCount != 85 {
		t.Fatalf("window count = %d, want 85 (40+45 at the victim)", m.MatchedCount)
	}
	// The fetch window (50× wider) reaches the victim's clusters only.
	if !slices.Equal(m.FetchRows, []int{0, 1}) {
		t.Fatalf("fetch rows = %v, want the two victim clusters", m.FetchRows)
	}
	// Untracked, the same question counts and fetches all three.
	untracked := *q
	untracked.TrackBy = -1
	if m := fetchStage(t, agg, &untracked); m.MatchedCount != 145 || !slices.Equal(m.FetchRows, []int{0, 1, 2}) {
		t.Fatalf("untracked: count %d, fetch rows %v; want 145 and all 3 rows", m.MatchedCount, m.FetchRows)
	}
}

func TestTrackedCountWindowWidthMatters(t *testing.T) {
	agg := buildAggregate(t, []struct {
		dst   float64
		count int
	}{
		{0.10, 30},
		{0.11, 30}, // 0.01 apart
	})
	narrow := trackedSYNQuestion(t, 1, 1e-3)
	if m := EstimateSimilarity(agg, narrow); m.MatchedCount != 30 {
		t.Fatalf("narrow window count = %d, want 30", m.MatchedCount)
	}
	wide := trackedSYNQuestion(t, 1, 0.02)
	if m := EstimateSimilarity(agg, wide); m.MatchedCount != 60 {
		t.Fatalf("wide window count = %d, want 60", m.MatchedCount)
	}
}

func TestTrackedCountEmptyMatchSet(t *testing.T) {
	agg := buildAggregate(t, []struct {
		dst   float64
		count int
	}{{0.1, 10}})
	q := trackedSYNQuestion(t, 1, 1e-4).WithDistanceThreshold(0) // nothing within 0 except exact
	// The built aggregate rows ARE exact for the signature, so distance
	// 0 still matches; force a miss via an impossible protocol pin.
	q.Vector[packet.FieldProtocol] = 1.0
	m := fetchStage(t, agg, q)
	if m.MatchedCount != 0 || len(m.FetchRows) != 0 || m.Matched {
		t.Fatalf("empty match set handled wrong: %+v", m)
	}
}

// TestPinlessQuestionMatchesNothing: a question that constrains no
// field matches no row at any τ_d, +Inf included, in the estimator and
// in the sweep over every row alike — the rule the question index
// (which never lists it) and Question.Distance state.
func TestPinlessQuestionMatchesNothing(t *testing.T) {
	agg := buildAggregate(t, []struct {
		dst   float64
		count int
	}{{0.1, 10}, {0.5, 20}})
	q := trackedSYNQuestion(t, 1, 1e-4)
	for f := range q.Vector {
		q.Vector[f] = rules.Irrelevant
	}
	for _, tc := range []struct {
		name string
		tau  float64
	}{
		{"zero", 0},
		{"default", q.DistanceThreshold},
		{"wide", 1e6},
		{"+Inf", math.Inf(1)},
		{"NaN", math.NaN()},
	} {
		for path, m := range map[string]*MatchResult{
			"estimator": estimateOne(agg, q, tc.tau, true, true),
			"sweep":     sweepEstimate(agg, q, tc.tau),
		} {
			if m.MatchedCount != 0 || len(m.FetchRows) != 0 || m.Matched {
				t.Errorf("τ_d %s, %s: count %d, fetch rows %v, matched %v; want nothing", tc.name, path, m.MatchedCount, m.FetchRows, m.Matched)
			}
		}
	}
}

// Property: the sliding-window maximum equals a brute-force scan over
// all windows anchored at row values.
func TestMaxWindowCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		rows := make([]struct {
			dst   float64
			count int
		}, n)
		for i := range rows {
			rows[i].dst = rng.Float64()
			rows[i].count = 1 + rng.Intn(20)
		}
		reps := linalg.NewMatrix(n, packet.NumFields)
		counts := make([]int, n)
		for i, r := range rows {
			reps.Row(i)[packet.FieldDstIP] = r.dst
			counts[i] = r.count
		}
		agg := &Aggregate{Representatives: reps, Counts: counts}
		width := rng.Float64() * 0.3

		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		_, got := maxWindowCount(agg, all, packet.FieldDstIP, width)

		// Brute force: for every row as window start, sum counts of
		// rows within [v, v+width].
		best := 0
		for i := range rows {
			lo := rows[i].dst
			sum := 0
			for j := range rows {
				if rows[j].dst >= lo && rows[j].dst <= lo+width {
					sum += rows[j].count
				}
			}
			if sum > best {
				best = sum
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
