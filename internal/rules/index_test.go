package rules

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/packet"
)

// qVec builds a question with the given sparse vector entries and τ_d.
func qVec(tau float64, entries map[packet.FieldIndex]float64) *Question {
	q := &Question{
		Vector:            make([]float64, packet.NumFields),
		DistanceThreshold: tau,
		CountThreshold:    1,
		TrackBy:           -1,
	}
	for i := range q.Vector {
		q.Vector[i] = Irrelevant
	}
	for f, v := range entries {
		q.Vector[f] = v
	}
	return q
}

// columnsOf gives Candidates what an aggregate does: each field of the
// centroids as one ascending column.
func columnsOf(vecs ...[]float64) func(packet.FieldIndex) []float64 {
	return func(f packet.FieldIndex) []float64 {
		col := make([]float64, len(vecs))
		for i, v := range vecs {
			col[i] = v[f]
		}
		sort.Float64s(col)
		return col
	}
}

// bruteForce is the reference Candidates is held to, written without the
// sorted columns: a question that constrains at least one field stays a
// candidate unless the sum, over its constrained fields, of the smallest
// |x_f − q_f| over every non-NaN row value exceeds its budget. With no
// rows nothing is a candidate.
func bruteForce(qs []*Question, maxTau []float64, rows [][]float64) *CandidateSet {
	out := &CandidateSet{bits: newBitset(len(qs)), n: len(qs)}
	if len(rows) == 0 {
		return out
	}
	for i, q := range qs {
		tau := q.DistanceThreshold
		if maxTau != nil && maxTau[i] > 0 {
			tau = maxTau[i]
		}
		active := 0
		sum := 0.0
		for f, v := range q.Vector {
			if v == Irrelevant {
				continue
			}
			active++
			nearest := math.Inf(1)
			for _, r := range rows {
				if math.IsNaN(r[f]) {
					continue
				}
				if d := math.Abs(r[f] - v); d < nearest {
					nearest = d
				}
			}
			sum += nearest
		}
		if active > 0 && !(sum > MatchBudget(tau, active)) {
			out.bits.set(i)
		}
	}
	return out
}

// candidates runs the index over the centroids and checks, on every
// corpus of this file, that it keeps exactly the questions the
// brute-force oracle keeps.
func candidates(t *testing.T, ix *QuestionIndex, qs []*Question, vecs ...[]float64) *CandidateSet {
	t.Helper()
	cs := ix.Candidates(columnsOf(vecs...))
	if want := bruteForce(qs, nil, vecs); !reflect.DeepEqual(cs, want) {
		t.Fatalf("candidates differ from the brute-force oracle: %d vs %d set", cs.Count(), want.Count())
	}
	return cs
}

// FuzzCandidatesEqualsBruteForce holds Candidates to the brute-force
// oracle on rows with NaN, ±Inf, duplicates and values outside [0, 1],
// questions constraining 0–18 fields, and thresholds of 0, τ_d, +Inf,
// −1, NaN and arbitrary bits, given as τ_d or through maxTau.
func FuzzCandidatesEqualsBruteForce(f *testing.F) {
	f.Add(uint64(0), []byte{})
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		data := make([]byte, 256)
		rng.Read(data)
		f.Add(rng.Uint64(), data)
	}
	f.Fuzz(func(t *testing.T, tauBits uint64, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// A coarse grid on [−0.1, 1.175]: duplicates are common, and it
		// never hits Irrelevant.
		value := func(b byte) float64 { return float64(b)/200 - 0.1 }
		rows := make([][]float64, next()%9)
		for r := range rows {
			rows[r] = make([]float64, packet.NumFields)
			for fi := range rows[r] {
				switch b := next(); b {
				case 255:
					rows[r][fi] = math.NaN()
				case 254:
					rows[r][fi] = math.Inf(1)
				case 253:
					rows[r][fi] = math.Inf(-1)
				default:
					rows[r][fi] = value(b)
				}
			}
		}
		taus := []float64{0, 0.05, math.Inf(1), -1, math.NaN(), math.Float64frombits(tauBits)}
		tau := func() float64 { return taus[int(next())%len(taus)] }
		qs := make([]*Question, next()%9)
		for i := range qs {
			mask := uint32(next()) | uint32(next())<<8 | uint32(next())<<16
			entries := make(map[packet.FieldIndex]float64)
			for fi := 0; fi < packet.NumFields; fi++ {
				if mask&(1<<fi) != 0 {
					entries[packet.FieldIndex(fi)] = value(next())
				}
			}
			qs[i] = qVec(tau(), entries)
		}
		var maxTau []float64
		if next()%2 == 1 {
			maxTau = make([]float64, len(qs))
			for i := range maxTau {
				maxTau[i] = tau()
			}
		}
		ix, err := NewQuestionIndex(qs, maxTau)
		if err != nil {
			t.Fatal(err)
		}
		got := ix.Candidates(columnsOf(rows...))
		if want := bruteForce(qs, maxTau, rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("candidates %v, brute force %v", got.bits, want.bits)
		}
	})
}

func fullRow(entries map[packet.FieldIndex]float64) []float64 {
	v := make([]float64, packet.NumFields)
	for f, x := range entries {
		v[f] = x
	}
	return v
}

func TestQuestionIndexSoundness(t *testing.T) {
	// Three questions: one pinned near dst-port 0.2, one near 0.8, one
	// loose on dst-port (constrains only SYN).
	qs := []*Question{
		qVec(0.01, map[packet.FieldIndex]float64{packet.FieldDstPort: 0.2, packet.FieldSYN: 1}),
		qVec(0.01, map[packet.FieldIndex]float64{packet.FieldDstPort: 0.8, packet.FieldSYN: 1}),
		qVec(0.05, map[packet.FieldIndex]float64{packet.FieldSYN: 1}),
	}
	ix, err := NewQuestionIndex(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ix.Len())
	}

	// A centroid at dst-port 0.2 with SYN: questions 0 and 2 must be
	// candidates; question 1 (pinned at 0.8, τ·n = 0.02) must be pruned.
	cs := candidates(t, ix, qs, fullRow(map[packet.FieldIndex]float64{packet.FieldDstPort: 0.2, packet.FieldSYN: 1}))
	if !cs.Contains(0) || !cs.Contains(2) {
		t.Fatalf("expected questions 0 and 2 as candidates")
	}
	if cs.Contains(1) {
		t.Fatalf("question pinned at 0.8 should be pruned for a 0.2 centroid")
	}
	if cs.Count() != 2 {
		t.Fatalf("Count = %d, want 2", cs.Count())
	}
}

// TestQuestionIndexNeverMisses is the core soundness property on random
// workloads: every question the exact Eq. 5 distance admits at τ_d must
// be in the candidate set.
func TestQuestionIndexNeverMisses(t *testing.T) {
	qs := GenerateQuestionsForTest(t, 2000, 7)
	ix, err := NewQuestionIndex(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic centroids spread over the axes the generator uses.
	var rows [][]float64
	for i := 0; i < 64; i++ {
		rows = append(rows, fullRow(map[packet.FieldIndex]float64{
			packet.FieldProtocol: float64(6+11*(i%2)) / 255,
			packet.FieldDstPort:  float64(i) / 64,
			packet.FieldSrcPort:  float64(63-i) / 64,
			packet.FieldDstIP:    float64(i) / 64,
			packet.FieldSYN:      float64(i % 2),
			packet.FieldACK:      float64((i / 2) % 2),
			packet.FieldWindow:   float64(i%3) / 3,
		}))
	}
	cs := candidates(t, ix, qs, rows...)
	missed := 0
	for qi, q := range qs {
		matches := false
		for _, r := range rows {
			if q.Distance(r) <= q.DistanceThreshold {
				matches = true
				break
			}
		}
		if matches && !cs.Contains(qi) {
			missed++
			if missed <= 3 {
				t.Errorf("question %d (sid %d) matches a centroid but was pruned", qi, q.Rule.SID)
			}
		}
	}
	if missed > 0 {
		t.Fatalf("%d matchable questions pruned — index is unsound", missed)
	}
	if pruned := len(qs) - cs.Count(); pruned == 0 {
		t.Fatalf("index pruned nothing on a selective workload — no pruning power")
	}
}

func TestQuestionIndexCovers(t *testing.T) {
	qs := []*Question{qVec(0.01, map[packet.FieldIndex]float64{packet.FieldDstPort: 0.2})}
	ix, err := NewQuestionIndex(qs, []float64{0.02})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Covers(0, 0.015) {
		t.Fatal("Covers(0, 0.015) = false, want true (built at 0.02)")
	}
	if ix.Covers(0, 0.03) {
		t.Fatal("Covers(0, 0.03) = true, want false")
	}
	if ix.Covers(-1, 0) || ix.Covers(1, 0) {
		t.Fatal("out-of-range Covers must be false")
	}
}

func TestQuestionIndexNilCandidateSet(t *testing.T) {
	var cs *CandidateSet
	if !cs.Contains(0) || !cs.Contains(12345) {
		t.Fatal("nil CandidateSet must contain everything (no index ⇒ linear scan)")
	}
}

func TestQuestionIndexErrors(t *testing.T) {
	qs := []*Question{qVec(0.01, nil)}
	if _, err := NewQuestionIndex(qs, []float64{1, 2}); err == nil {
		t.Fatal("length-mismatched maxTau must error")
	}
	if _, err := NewQuestionIndex([]*Question{nil}, nil); err == nil {
		t.Fatal("nil question must error")
	}
}

// TestQuestionIndexNeverMatchable: a question with no active fields has
// +Inf distance and must never be a candidate.
func TestQuestionIndexNeverMatchable(t *testing.T) {
	qs := []*Question{
		qVec(0.05, nil), // all Irrelevant
		qVec(0.05, map[packet.FieldIndex]float64{packet.FieldSYN: 1}),
	}
	ix, err := NewQuestionIndex(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := candidates(t, ix, qs, fullRow(map[packet.FieldIndex]float64{packet.FieldSYN: 1}))
	if cs.Contains(0) {
		t.Fatal("zero-active-field question must be pruned")
	}
	if !cs.Contains(1) {
		t.Fatal("SYN question must be a candidate")
	}
}

// GenerateQuestionsForTest builds a translated scale library for tests
// in this and other packages' test files.
func GenerateQuestionsForTest(t testing.TB, n int, seed int64) []*Question {
	t.Helper()
	env := NewEnvironment()
	qs, err := GenerateQuestions(GenConfig{Rules: n, Seed: seed}, env, DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("generator yielded no questions")
	}
	return qs
}

// TestMatchBudgetEdges pins what the two prunings rely on at the odd
// thresholds: +Inf keeps everything, NaN satisfies no comparison, a
// negative τ leaves nothing a non-negative deviation could meet beyond
// the absolute margin, and an ordinary τ leaves room above τ·n.
func TestMatchBudgetEdges(t *testing.T) {
	if b := MatchBudget(math.Inf(1), 3); !math.IsInf(b, 1) {
		t.Errorf("budget at τ=+Inf is %v", b)
	}
	if b := MatchBudget(math.NaN(), 3); b >= 0 || b < 0 {
		t.Errorf("budget at τ=NaN is %v, want NaN", b)
	}
	if b := MatchBudget(-1, 3); b >= 0 {
		t.Errorf("budget at τ=-1 is %v, want negative", b)
	}
	if b := MatchBudget(0, 3); b <= 0 || b > 1e-12 {
		t.Errorf("budget at τ=0 is %v, want the absolute margin", b)
	}
	if b := MatchBudget(0.05, 4); b <= 0.05*4 || b > 0.05*4*1.000001 {
		t.Errorf("budget at τ=0.05, n=4 is %v", b)
	}
}
