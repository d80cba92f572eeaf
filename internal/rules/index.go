package rules

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/packet"
	"repro/internal/par"
)

// This file implements the question index: Algorithm 1's matching cost
// is linear in questions × centroids, so the index drops, once per
// epoch, every question that provably matches no centroid, matching
// header fields one at a time after Alia et al. (PAPERS.md). Its one test
// is exact: for each field a question constrains, binary-search the
// epoch's sorted column for the centroid value nearest q_f, and sum those
// nearest deviations. Any single centroid x has Σ_f |q_f − x_f| at least
// that sum, since each field is free to pick its own nearest centroid, so
// a sum above the question's padded τ·n budget (MatchBudget) proves no
// centroid meets the Eq. 5 mean; NaN column values are skipped, as no
// centroid carrying one can match. The test is necessary, not
// sufficient, so the estimator still runs on every candidate: the index
// only skips questions whose match set is certainly empty, which keeps
// indexed evaluation byte-identical to the linear sweep. One epoch's
// questions are tested in chunks of whole bitset words across the
// worker pool.

// bitset is a fixed-size bit vector over question indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// QuestionIndex answers "which questions could possibly match this
// epoch's centroids". Build it once per question library, at the widest
// threshold each question is evaluated at; query it once per epoch.
type QuestionIndex struct {
	n int
	// used has bit f set when some question constrains field f.
	used uint32
	// pad[i] is question i's total-deviation budget: the Eq. 5 mean
	// bound τ·n plus a float safety margin (MatchBudget).
	pad []float64
	// pins[start[i]:start[i+1]] holds question i's constrained fields. A
	// question with none has +Inf Eq. 5 distance and is never a candidate.
	pins  []Pin
	start []int
}

// NewQuestionIndex builds the index over qs. maxTau gives, per
// question, the largest distance threshold the question will be
// evaluated at — τ_d2 for questions run through the two-stage feedback
// loop, the question's own DistanceThreshold otherwise. A nil maxTau or
// a non-positive entry defaults to the question's DistanceThreshold.
// The index is immutable and safe for concurrent queries.
func NewQuestionIndex(qs []*Question, maxTau []float64) (*QuestionIndex, error) {
	if maxTau != nil && len(maxTau) != len(qs) {
		return nil, fmt.Errorf("rules: index: %d questions but %d thresholds", len(qs), len(maxTau))
	}
	ix := &QuestionIndex{
		n:     len(qs),
		pad:   make([]float64, len(qs)),
		start: make([]int, len(qs)+1),
	}
	for i, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("rules: index: nil question at %d", i)
		}
		tau := q.DistanceThreshold
		if maxTau != nil && maxTau[i] > 0 {
			tau = maxTau[i]
		}
		ix.pins = q.AppendPins(ix.pins)
		ix.start[i+1] = len(ix.pins)
		for _, p := range ix.pins[ix.start[i]:] {
			ix.used |= 1 << uint(p.Field)
		}
		ix.pad[i] = MatchBudget(tau, ix.start[i+1]-ix.start[i])
	}
	return ix, nil
}

// Len returns the number of questions the index was built over.
func (ix *QuestionIndex) Len() int { return ix.n }

// CandidateSet is one epoch's answer: the questions whose match set may
// be non-empty against that epoch's centroids.
type CandidateSet struct {
	bits bitset
	n    int
}

// Contains reports whether question i survived the index filter.
func (s *CandidateSet) Contains(i int) bool {
	if s == nil {
		return true // no index ⇒ everything is a candidate
	}
	return s.bits.has(i)
}

// Count returns the number of candidate questions.
func (s *CandidateSet) Count() int { return s.bits.count() }

// Len returns the number of questions the set ranges over.
func (s *CandidateSet) Len() int { return s.n }

// candidateChunk is how many questions one worker tests at a time: a
// whole number of 64-question bitset words, so no two chunks write the
// same word.
const candidateChunk = 1024

// Candidates computes the epoch's candidate set. column(f) must return
// the epoch's centroid values on field f in ascending order, NaNs
// first (the order of sort.Float64s); every column has one entry per
// centroid. It is called once per constrained field, from several
// goroutines at once, so the aggregate sorts its columns in parallel;
// the index only reads them, and the estimator's row windows share
// them. Cost is one binary search per constrained field of each
// question, stopping at the first field that exhausts the question's
// budget; the questions are tested in chunks spread over the worker
// pool.
func (ix *QuestionIndex) Candidates(column func(f packet.FieldIndex) []float64) *CandidateSet {
	return ix.candidates(column, 0)
}

// candidates is Candidates across at most workers goroutines (0 means
// the whole pool). The set does not depend on workers.
func (ix *QuestionIndex) candidates(column func(f packet.FieldIndex) []float64, workers int) *CandidateSet {
	out := &CandidateSet{bits: newBitset(ix.n), n: ix.n}
	var fields [packet.NumFields]packet.FieldIndex
	used := 0
	for f := range fields {
		if ix.used&(1<<uint(f)) != 0 {
			fields[used] = packet.FieldIndex(f)
			used++
		}
	}
	var cols [packet.NumFields][]float64
	par.For(used, workers, func(i int) { cols[fields[i]] = column(fields[i]) })
	for _, f := range fields[:used] {
		if len(cols[f]) == 0 {
			return out // no centroids: nothing can match
		}
	}
	par.For((ix.n+candidateChunk-1)/candidateChunk, workers, func(c int) {
		lo := c * candidateChunk
		ix.test(&cols, out.bits, lo, min(lo+candidateChunk, ix.n))
	})
	return out
}

// test sets the bit of every question in [lo, hi) whose summed nearest
// deviations stay within its budget.
func (ix *QuestionIndex) test(cols *[packet.NumFields][]float64, bits bitset, lo, hi int) {
questions:
	for i := lo; i < hi; i++ {
		pins := ix.pins[ix.start[i]:ix.start[i+1]]
		if len(pins) == 0 {
			continue
		}
		// The sum only grows, so the first partial sum over budget
		// settles the question.
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
			if sum += d; sum > ix.pad[i] {
				continue questions
			}
		}
		bits.set(i)
	}
}
