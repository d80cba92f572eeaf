package rules

import (
	"math"
	"math/bits"
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

// candidatesFromRows is the row-callback form Candidates had before the
// aggregate grew shared sorted columns, kept as the reference the
// column form is compared with: it copies and sorts every indexed column
// itself, then runs the same two phases.
func candidatesFromRows(ix *QuestionIndex, rows int, row func(i int) []float64) *CandidateSet {
	out := &CandidateSet{bits: newBitset(ix.n), n: ix.n}
	if ix.n == 0 || rows == 0 || len(ix.fields) == 0 {
		return out
	}
	var occ [packet.NumFields][numBuckets / 64]uint64
	var vals [packet.NumFields][]float64
	for _, fs := range ix.fields {
		vals[fs.field] = make([]float64, rows)
	}
	for r := 0; r < rows; r++ {
		v := row(r)
		for _, fs := range ix.fields {
			b := bucketOf(v[fs.field])
			occ[fs.field][b>>6] |= 1 << (b & 63)
			vals[fs.field][r] = v[fs.field]
		}
	}
	for _, fs := range ix.fields {
		sort.Float64s(vals[fs.field])
	}
	mask := newBitset(ix.n)
	for fi, fs := range ix.fields {
		mask.copyFrom(fs.loose)
		for w, word := range occ[fs.field] {
			for word != 0 {
				b := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				if qb := fs.buckets[b]; qb != nil {
					mask.orInto(qb)
				}
			}
		}
		if fi == 0 {
			out.bits.copyFrom(mask)
		} else {
			out.bits.andInto(mask)
		}
	}
	out.bits.andNot(ix.never)
	for w, word := range out.bits {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			sum := 0.0
			for _, iv := range ix.ivals[i] {
				fv := vals[iv.field]
				at := sort.SearchFloat64s(fv, iv.v)
				d := math.Inf(1)
				if at < len(fv) {
					d = fv[at] - iv.v
				}
				if at > 0 && iv.v-fv[at-1] < d {
					d = iv.v - fv[at-1]
				}
				sum += d
				if sum > ix.pad[i] {
					out.bits[w] &^= 1 << (i & 63)
					break
				}
			}
		}
	}
	return out
}

// candidates runs the index over the centroids and checks, on every
// corpus of this file, that reading the sorted columns gives the bitset
// the row-callback form gave.
func candidates(t *testing.T, ix *QuestionIndex, vecs ...[]float64) *CandidateSet {
	t.Helper()
	cs := ix.Candidates(columnsOf(vecs...))
	want := candidatesFromRows(ix, len(vecs), func(i int) []float64 { return vecs[i] })
	if !reflect.DeepEqual(cs, want) {
		t.Fatalf("column-form candidates differ from the row-callback form: %d vs %d set", cs.Count(), want.Count())
	}
	return cs
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
	if ix.Signatures() != 2 {
		t.Fatalf("Signatures = %d, want 2", ix.Signatures())
	}

	// A centroid at dst-port 0.2 with SYN: questions 0 and 2 must be
	// candidates; question 1 (pinned at 0.8, τ·n = 0.02) must be pruned.
	cs := candidates(t, ix, fullRow(map[packet.FieldIndex]float64{packet.FieldDstPort: 0.2, packet.FieldSYN: 1}))
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
	cs := candidates(t, ix, rows...)
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
	cs := candidates(t, ix, fullRow(map[packet.FieldIndex]float64{packet.FieldSYN: 1}))
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
