package rules

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/packet"
	"repro/internal/par"
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

// searchCandidates is the candidate pass as it ran before the index
// ordered its pins: each pin binary-searches its field's column for the
// first value at or above it (sort.SearchFloat64s), its deviation is the
// smaller of the distances to that value and to the one before, and a
// question's deviations are summed in pin order until one passes its
// budget. It is the reference the merged walk must match bit for bit,
// NaN pins (+Inf away) and columns with leading NaNs included.
func searchCandidates(qs []*Question, maxTau []float64, column func(packet.FieldIndex) []float64) *CandidateSet {
	out := &CandidateSet{bits: newBitset(len(qs)), n: len(qs)}
	var cols [packet.NumFields][]float64
	for _, q := range qs {
		for _, p := range q.AppendPins(nil) {
			if cols[p.Field] == nil {
				if cols[p.Field] = column(p.Field); len(cols[p.Field]) == 0 {
					return out
				}
			}
		}
	}
questions:
	for i, q := range qs {
		pins := q.AppendPins(nil)
		if len(pins) == 0 {
			continue
		}
		tau := q.DistanceThreshold
		if maxTau != nil && maxTau[i] > 0 {
			tau = maxTau[i]
		}
		sum := 0.0
		for _, p := range pins {
			col := cols[p.Field]
			at := sort.SearchFloat64s(col, p.V)
			d := math.Inf(1)
			if at < len(col) {
				d = col[at] - p.V
			}
			if at > 0 && p.V-col[at-1] < d {
				d = p.V - col[at-1]
			}
			if sum += d; sum > MatchBudget(tau, len(pins)) {
				continue questions
			}
		}
		out.bits.set(i)
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

// FuzzCandidatesEqualSearch holds the merged candidate pass to the
// per-pin search it replaced, bit for bit, where the brute-force oracle
// cannot follow: raw float64 pins and thresholds, NaN and infinite pins
// and column values, columns with leading NaNs, pins copied from column
// values and duplicated across questions, thresholds given as τ_d or
// through maxTau.
func FuzzCandidatesEqualSearch(f *testing.F) {
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(2))
	for range 4 {
		data := make([]byte, 512)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1}
		// A byte picks an odd value, a point on a coarse grid, or the
		// bits of the next eight bytes.
		value := func() float64 {
			switch b := next(); {
			case b < 32:
				return odd[int(b)%len(odd)]
			case b < 224:
				return float64(b-32) / 128
			default:
				var bits uint64
				for range 8 {
					bits = bits<<8 | uint64(next())
				}
				return math.Float64frombits(bits)
			}
		}
		rows := make([][]float64, next()%12)
		for r := range rows {
			rows[r] = make([]float64, packet.NumFields)
			for fi := range rows[r] {
				rows[r][fi] = value()
			}
		}
		var seen []float64
		qs := make([]*Question, next()%12)
		for i := range qs {
			mask := uint32(next()) | uint32(next())<<8 | uint32(next())<<16
			entries := make(map[packet.FieldIndex]float64)
			for fi := 0; fi < packet.NumFields; fi++ {
				if mask&(1<<fi) == 0 {
					continue
				}
				switch b := next(); {
				case b < 64 && len(rows) > 0:
					entries[packet.FieldIndex(fi)] = rows[int(b)%len(rows)][fi]
				case b < 128 && len(seen) > 0:
					entries[packet.FieldIndex(fi)] = seen[int(b)%len(seen)]
				default:
					entries[packet.FieldIndex(fi)] = value()
				}
				seen = append(seen, entries[packet.FieldIndex(fi)])
			}
			qs[i] = qVec(value(), entries)
		}
		var maxTau []float64
		if next()%2 == 1 {
			maxTau = make([]float64, len(qs))
			for i := range maxTau {
				maxTau[i] = value()
			}
		}
		ix, err := NewQuestionIndex(qs, maxTau)
		if err != nil {
			t.Fatal(err)
		}
		got := ix.Candidates(columnsOf(rows...))
		if want := searchCandidates(qs, maxTau, columnsOf(rows...)); !reflect.DeepEqual(got, want) {
			t.Fatalf("merged pass %v, per-pin search %v", got.bits, want.bits)
		}
	})
}

// TestMain gives the worker pool — sized once, at first use — at least
// two participants, so the chunked candidate pass runs on real helpers
// even on a single-CPU machine.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	os.Exit(m.Run())
}

// TestCandidatesChunkBoundaries holds the chunked candidate pass to the
// brute-force oracle and to the per-pin search at question counts on
// either side of a bitset word and of a chunk, on one worker and on the
// whole pool: a chunk that tested a question twice, skipped one, or
// shared a word with its neighbour shows up here (under -race too),
// never in the fuzz targets, whose libraries stay below one word. The
// column of every field has a NaN, the destination port's first; pins
// sit on column values or a little off them, repeat, and every 89th
// question has a NaN pin.
func TestCandidatesChunkBoundaries(t *testing.T) {
	if par.Size() < 2 {
		t.Fatalf("worker pool has %d participant, want ≥ 2", par.Size())
	}
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 40)
	for r := range rows {
		rows[r] = make([]float64, packet.NumFields)
		for f := range rows[r] {
			rows[r][f] = float64(rng.Intn(50)) / 50
		}
	}
	for f := range packet.NumFields {
		rows[(3+f)%len(rows)][f] = math.NaN()
	}
	taus := []float64{0, 0.005, 0.05}
	for _, n := range []int{0, 1, 63, 64, 1023, 1024, 1025, 2500} {
		qs := make([]*Question, n)
		for i := range qs {
			// One to four pinned fields (none for every 97th question),
			// each on some row's value or a little off it.
			entries := map[packet.FieldIndex]float64{}
			for k := rng.Intn(4) + 1; k > 0 && i%97 != 96; k-- {
				f := packet.FieldIndex(rng.Intn(packet.NumFields))
				entries[f] = rows[rng.Intn(len(rows))][f] + float64(rng.Intn(3))*0.01
			}
			if i%89 == 88 {
				entries[packet.FieldDstPort] = math.NaN()
			}
			qs[i] = qVec(taus[rng.Intn(len(taus))], entries)
		}
		ix, err := NewQuestionIndex(qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(qs, nil, rows)
		if n >= 64 && (want.Count() == 0 || want.Count() == n) {
			t.Fatalf("%d questions: %d candidates — the comparison is vacuous", n, want.Count())
		}
		if search := searchCandidates(qs, nil, columnsOf(rows...)); !reflect.DeepEqual(search, want) {
			t.Fatalf("%d questions: per-pin search keeps %d, brute force %d", n, search.Count(), want.Count())
		}
		for _, workers := range []int{1, 0} {
			if got := ix.candidates(columnsOf(rows...), workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d questions, workers=%d: %d candidates, brute force and per-pin search %d", n, workers, got.Count(), want.Count())
			}
		}
	}
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
