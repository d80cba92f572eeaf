package rules

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/packet"
)

// This file implements the question index of ISSUE 6: Algorithm 1's
// matching cost is linear in questions × centroids, which caps the rule
// library at the paper's handful of attacks. The index makes the
// per-epoch cost grow with the number of *matching* questions instead
// (the classical header-matching result of Alia et al., PAPERS.md):
//
//   - Questions are grouped by shared-field signature — the bitmask of
//     header fields the question constrains. All questions in a group
//     agree on which of the 18 normalized columns matter.
//   - Over every constrained column the index keeps a bit-sliced
//     interval table: the [0,1] axis is cut into 256 buckets, and
//     bucket b holds a bitset of the questions whose match interval
//     touches b. A question q matching at threshold τ requires, on
//     every constrained field f, |q_f − x_f| ≤ τ·n (n = number of
//     constrained fields) — the necessary per-field relaxation of the
//     Eq. 5 mean — so q's interval on f is [q_f − τ·n, q_f + τ·n].
//   - Per epoch, one pass over the aggregate marks the buckets its
//     centroids occupy; a question survives phase 1 only if every
//     constrained column's interval touches an occupied bucket. A
//     second, exact phase then binary-searches the epoch's sorted
//     per-column centroid values for the nearest value to each
//     survivor's pinned fields and sums those per-field minima — a
//     lower bound on any single centroid's Σ|q_f − x_f|, so exceeding
//     the τ·n budget proves no centroid can pass the Eq. 5 mean. The
//     bucket grid is coarse exactly where real rule libraries are
//     dense (all of 10/8 spans one 256-bucket cell, privileged ports a
//     couple more), and the refinement restores full resolution there.
//     Questions failing either phase are provably unmatchable this
//     epoch and skip the exact scan entirely.
//
// The filter is conservative (per-field overlap is necessary, not
// sufficient, and each field may be satisfied by a different centroid),
// so the exact estimator still runs on candidates — the index only
// licenses skipping questions whose match set is certainly empty, which
// is what keeps indexed evaluation byte-identical to the linear sweep.

// numBuckets is the bit-slice resolution per normalized column. 256
// buckets put the bucket width (≈0.004) well below the port- and
// host-pinned questions' padded intervals' useful selectivity while
// keeping the per-field occupancy mask at four words.
const numBuckets = 256

// bitset is a fixed-size bit vector over question indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) orInto(src bitset) {
	for w := range b {
		b[w] |= src[w]
	}
}
func (b bitset) andInto(src bitset) {
	for w := range b {
		b[w] &= src[w]
	}
}
func (b bitset) andNot(src bitset) {
	for w := range b {
		b[w] &^= src[w]
	}
}
func (b bitset) copyFrom(src bitset) { copy(b, src) }

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// fieldSlice is the bit-sliced interval table for one constrained
// column.
type fieldSlice struct {
	field packet.FieldIndex
	// buckets[b] holds the questions constraining this field whose
	// padded match interval touches bucket b.
	buckets [numBuckets]bitset
	// loose holds the questions that do NOT constrain this field: they
	// accept any value here, so they survive this column's filter
	// regardless of occupancy.
	loose bitset
}

// QuestionIndex answers "which questions could possibly match this
// epoch's centroids" in time sublinear in the library size. Build it
// once per question library (and rebuild when a question's evaluation
// threshold outgrows the bound it was built with); query it once per
// epoch.
type QuestionIndex struct {
	n      int
	fields []*fieldSlice
	// never holds questions with no constrained field at all: Eq. 5
	// distance is +Inf for them, they can never match.
	never bitset
	// sigs counts the distinct shared-field signatures, for reporting.
	sigs int
	// tau[i] is the threshold bound question i was indexed under; a
	// caller evaluating at a larger τ must rebuild (Covers).
	tau []float64
	// pad[i] is the padded total-deviation budget τ·n of question i —
	// the Eq. 5 mean bound times the active-field count, plus a float
	// safety margin.
	pad []float64
	// ivals[i] holds question i's constrained field values for the
	// phase-2 refinement.
	ivals [][]interval
}

// interval is one question's pinned value on one constrained field.
type interval struct {
	field packet.FieldIndex
	v     float64
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
		never: newBitset(len(qs)),
		tau:   make([]float64, len(qs)),
		pad:   make([]float64, len(qs)),
		ivals: make([][]interval, len(qs)),
	}
	slices := make(map[packet.FieldIndex]*fieldSlice)
	signatures := make(map[uint32]bool)
	for i, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("rules: index: nil question at %d", i)
		}
		tau := q.DistanceThreshold
		if maxTau != nil && maxTau[i] > 0 {
			tau = maxTau[i]
		}
		ix.tau[i] = tau

		var sig uint32
		active := 0
		for f, v := range q.Vector {
			if v != Irrelevant {
				sig |= 1 << uint(f)
				active++
			}
		}
		if active == 0 {
			ix.never.set(i)
			continue
		}
		signatures[sig] = true

		// Per-field necessary condition: |q_f − x_f| ≤ τ·n, padded so
		// float rounding in the Eq. 5 sum can never admit a centroid
		// the slice excluded (MatchBudget).
		pad := MatchBudget(tau, active)
		ix.pad[i] = pad
		ix.ivals[i] = make([]interval, 0, active)
		for f, v := range q.Vector {
			if v == Irrelevant {
				continue
			}
			fs := slices[packet.FieldIndex(f)]
			if fs == nil {
				fs = &fieldSlice{field: packet.FieldIndex(f)}
				slices[packet.FieldIndex(f)] = fs
			}
			ix.ivals[i] = append(ix.ivals[i], interval{field: packet.FieldIndex(f), v: v})
			lo := bucketOf(v - pad)
			hi := bucketOf(v + pad)
			for b := lo; b <= hi; b++ {
				if fs.buckets[b] == nil {
					fs.buckets[b] = newBitset(len(qs))
				}
				fs.buckets[b].set(i)
			}
		}
	}
	ix.sigs = len(signatures)

	// Materialize the slices in fixed field order and fill each one's
	// loose set (questions that leave the field unconstrained).
	for f := 0; f < packet.NumFields; f++ {
		fs := slices[packet.FieldIndex(f)]
		if fs == nil {
			continue
		}
		fs.loose = newBitset(len(qs))
		for i, q := range qs {
			if q.Vector[f] == Irrelevant {
				fs.loose.set(i)
			}
		}
		ix.fields = append(ix.fields, fs)
	}
	return ix, nil
}

// bucketOf maps a normalized value to its bucket, clamping out-of-range
// values (SVD reconstruction can push centroids slightly outside
// [0, 1]; clamping is monotone, so interval containment survives it).
func bucketOf(x float64) int {
	if x <= 0 || math.IsNaN(x) {
		return 0
	}
	if x >= 1 {
		return numBuckets - 1
	}
	b := int(x * numBuckets)
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// Len returns the number of questions the index was built over.
func (ix *QuestionIndex) Len() int { return ix.n }

// Signatures returns the number of distinct shared-field signatures.
func (ix *QuestionIndex) Signatures() int { return ix.sigs }

// Covers reports whether question i's indexed interval bound is wide
// enough to evaluate it at τ. Evaluating above the built bound voids
// the pruning guarantee; callers must rebuild first (the controller
// does this when the adaptive loop widens a τ_d2 past the bound).
func (ix *QuestionIndex) Covers(i int, tau float64) bool {
	return i >= 0 && i < len(ix.tau) && tau <= ix.tau[i]
}

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

// Candidates computes the epoch's candidate set. column(f) must return
// the epoch's centroid values on field f in ascending order, NaNs
// first (the order of sort.Float64s); every column has one entry per
// centroid. The index only reads the columns — the aggregate sorts each
// once per epoch and the estimator's row windows share them. Cost is one
// pass over each indexed column plus bitset algebra in the library
// size / 64.
func (ix *QuestionIndex) Candidates(column func(f packet.FieldIndex) []float64) *CandidateSet {
	out := &CandidateSet{bits: newBitset(ix.n), n: ix.n}
	if ix.n == 0 || len(ix.fields) == 0 {
		return out
	}

	// Occupancy pass: which buckets does any centroid fall in, per
	// indexed column. The sorted values themselves serve the phase-2
	// exact refinement.
	var occ [packet.NumFields][numBuckets / 64]uint64
	var vals [packet.NumFields][]float64
	for _, fs := range ix.fields {
		col := column(fs.field)
		if len(col) == 0 {
			return out
		}
		vals[fs.field] = col
		for _, v := range col {
			b := bucketOf(v)
			occ[fs.field][b>>6] |= 1 << (b & 63)
		}
	}

	// Intersection pass: a candidate must, on every indexed column,
	// either leave it unconstrained or have its interval touch an
	// occupied bucket.
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

	// Phase 2 — exact refinement: a bucket cell spans 1/256 of the
	// axis, which is the whole of a /8 on the address columns and 256
	// ports on the port columns, so phase 1 cannot separate questions
	// inside those dense ranges. For each survivor, binary-search each
	// constrained column's sorted centroid values for the nearest one
	// to the question's pinned value, and accumulate those minimum
	// deviations. For any single centroid x, Σ_f |q_f − x_f| is at
	// least the sum of per-field minima (each field is free to pick its
	// own closest centroid), so once that sum exceeds the padded τ·n
	// budget no centroid can satisfy the Eq. 5 mean and the question is
	// provably unmatchable — the set stays a conservative superset.
	// This subsumes the per-field interval test (one field's deviation
	// alone blowing the budget is the special case) and is what
	// separates host-pinned questions inside the dense home band, where
	// every single field is individually close to some centroid.
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
