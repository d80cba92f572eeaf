package rules

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/packet"
	"repro/internal/par"
	"repro/internal/radix"
)

// This file implements the question index: Algorithm 1's matching cost
// is linear in questions × centroids, so the index drops, once per
// epoch, every question that provably matches no centroid, matching
// header fields one at a time after Alia et al. (PAPERS.md). Its one test
// is exact: for each field a question constrains, find the epoch's
// centroid value nearest q_f, and sum those nearest deviations. The
// distinct values the questions pin each field to are ordered once, when
// the index is built, so an epoch finds the nearest centroid value of
// all of them in one merge walk over that field's sorted column — no
// per-pin search. Any single centroid x has Σ_f |q_f − x_f| at least
// that sum, since each field is free to pick its own nearest centroid, so
// a sum above the question's padded τ·n budget (MatchBudget) proves no
// centroid meets the Eq. 5 mean; NaN column values are skipped, as no
// centroid carrying one can match. The test is necessary, not
// sufficient, so the estimator still runs on every candidate: the index
// only skips questions whose match set is certainly empty, which keeps
// indexed evaluation byte-identical to the linear sweep. One epoch's
// fields are walked, and then its questions summed in chunks of whole
// bitset words, across the worker pool.

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
	// pin[start[i]:start[i+1]] lists question i's constrained fields in
	// ascending field order, each as the index in vals of the value the
	// question pins it to. A question with none matches nothing
	// (Question.Distance) and is never a candidate.
	pin   []int32
	start []int
	// vals[fieldStart[f]:fieldStart[f+1]] holds the distinct values
	// questions pin field f to, in ascending radix.Key order (NaNs
	// first).
	vals       []float64
	fieldStart [packet.NumFields + 1]int
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
	// Two passes over the pins, each question's on the stack: count them
	// per question and per field, then bucket their values by field.
	var buf [packet.NumFields]Pin
	var bucket [packet.NumFields + 1]int
	for i, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("rules: index: nil question at %d", i)
		}
		tau := q.DistanceThreshold
		if maxTau != nil && maxTau[i] > 0 {
			tau = maxTau[i]
		}
		pins := q.AppendPins(buf[:0])
		for _, p := range pins {
			ix.used |= 1 << uint(p.Field)
			bucket[p.Field+1]++
		}
		ix.start[i+1] = ix.start[i] + len(pins)
		ix.pad[i] = MatchBudget(tau, len(pins))
	}
	widest := 0
	for f := range packet.NumFields {
		widest = max(widest, bucket[f+1])
		bucket[f+1] += bucket[f]
	}
	m := ix.start[ix.n]
	// pinned[k] is the value of the pin numbered owner[k], with the pins
	// in field order.
	pinned, owner := make([]float64, m), make([]int32, m)
	next := bucket
	for i, q := range qs {
		for k, p := range q.AppendPins(buf[:0]) {
			pinned[next[p.Field]], owner[next[p.Field]] = p.V, int32(ix.start[i]+k)
			next[p.Field]++
		}
	}
	// Sort each field's values — within one field most bytes of the keys
	// agree, and the sort skips those — and keep each distinct value once.
	keys, idx := make([]uint64, 2*widest), make([]int32, 2*widest)
	ix.pin = make([]int32, m)
	for f := range packet.NumFields {
		ix.fieldStart[f] = len(ix.vals)
		lo, n := bucket[f], bucket[f+1]-bucket[f]
		for j := range n {
			keys[j], idx[j] = radix.Key(pinned[lo+j]), int32(lo+j)
		}
		order := radix.Sort(keys[:n], keys[widest:widest+n], idx[:n], idx[widest:widest+n])
		for j, k := range order {
			if v := pinned[k]; j == 0 || math.Float64bits(v) != math.Float64bits(ix.vals[len(ix.vals)-1]) {
				ix.vals = append(ix.vals, v)
			}
			ix.pin[owner[k]] = int32(len(ix.vals) - 1)
		}
	}
	ix.fieldStart[packet.NumFields] = len(ix.vals)
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
// them. Cost is one walk per constrained field, over its column and the
// distinct values pinned on it together, then one sum per question,
// stopping at the first pin that exhausts the question's budget; both
// passes are spread over the worker pool.
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
	dev := make([]float64, len(ix.vals))
	var empty atomic.Bool
	par.For(used, workers, func(i int) {
		f := fields[i]
		col := column(f)
		if len(col) == 0 {
			empty.Store(true)
			return
		}
		lo, hi := ix.fieldStart[f], ix.fieldStart[f+1]
		nearest(col, ix.vals[lo:hi], dev[lo:hi])
	})
	if empty.Load() {
		return out // no centroids: nothing can match
	}
	par.For((ix.n+candidateChunk-1)/candidateChunk, workers, func(c int) {
		lo := c * candidateChunk
		ix.test(dev, out.bits, lo, min(lo+candidateChunk, ix.n))
	})
	return out
}

// nearest writes to dev[j] the deviation of one field's pinned value
// vals[j] from the nearest value of col: the smaller of the distances up
// to the first value at or above it and down to the value before that,
// as a binary search per value would find them (sort.SearchFloat64s),
// with the same bits. vals ascend, so that first value only moves
// right, and one walk of col serves them all. col ascends with its NaNs
// first, which no search lands on; a NaN value, which sorts first, is
// +Inf away.
func nearest(col, vals, dev []float64) {
	at := 0
	for at < len(col) && col[at] != col[at] {
		at++
	}
	for j, v := range vals {
		if v != v {
			dev[j] = math.Inf(1)
			continue
		}
		for at < len(col) && col[at] < v {
			at++
		}
		d := math.Inf(1)
		if at < len(col) {
			d = col[at] - v
		}
		if at > 0 && v-col[at-1] < d {
			d = v - col[at-1]
		}
		dev[j] = d
	}
}

// test sets the bit of every question in [lo, hi) whose summed nearest
// deviations, in pin order, stay within its budget.
func (ix *QuestionIndex) test(dev []float64, bits bitset, lo, hi int) {
questions:
	for i := lo; i < hi; i++ {
		if ix.start[i] == ix.start[i+1] {
			continue
		}
		// The sum only grows, so the first partial sum over budget
		// settles the question.
		sum := 0.0
		for _, k := range ix.pin[ix.start[i]:ix.start[i+1]] {
			if sum += dev[k]; sum > ix.pad[i] {
				continue questions
			}
		}
		bits.set(i)
	}
}
