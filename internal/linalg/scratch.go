package linalg

import "sync"

// Scratch is a reusable arena for the intermediate buffers of the
// summarization hot path: the SVD's transposed working copy (which ends
// up holding the Householder reflectors), its p×p triangular factor and
// rotation accumulator, the k-means ping-pong centroid buffers, distance
// vectors, column-major copy of the rows and packed centres, and the
// rank-r reconstruction. Handing these out of an arena instead of make() is
// what takes a batch summarization from ~30 heap allocations to none
// (summary.BenchmarkSummarizeBatch).
//
// Buffers are carved off growing backing slabs and stay valid until the
// next Reset; Reset reclaims everything at once. The zero value is ready
// to use. A Scratch is not safe for concurrent use: a long-lived
// single-goroutine owner (summary.Summarizer) embeds its own, and
// one-shot callers take one from the pool with GetScratch and return it
// with PutScratch, after which every buffer it handed out is dead (the
// pool will recycle the memory).
type Scratch struct {
	floats []float64
	ints   []int
	mats   []Matrix
	fOff   int
	iOff   int
	mOff   int
}

// Reset reclaims every buffer handed out since the last Reset. The
// backing slabs are kept, so a warmed-up Scratch allocates nothing.
func (s *Scratch) Reset() { s.fOff, s.iOff, s.mOff = 0, 0, 0 }

// FloatCap returns the size of the float slab in float64s: what the
// Scratch keeps allocated between uses.
func (s *Scratch) FloatCap() int { return len(s.floats) }

// Floats returns a zeroed []float64 of length n from the arena.
func (s *Scratch) Floats(n int) []float64 {
	if s.fOff+n > len(s.floats) {
		c := 2 * len(s.floats)
		if c < n {
			c = n
		}
		if c < 1024 {
			c = 1024
		}
		// Abandon the remainder of the old slab: buffers already handed
		// out keep referencing it, so it must not be recycled here.
		s.floats = make([]float64, c)
		s.fOff = 0
	}
	out := s.floats[s.fOff : s.fOff+n : s.fOff+n]
	s.fOff += n
	for i := range out {
		out[i] = 0
	}
	return out
}

// Ints returns a zeroed []int of length n from the arena.
func (s *Scratch) Ints(n int) []int {
	if s.iOff+n > len(s.ints) {
		c := 2 * len(s.ints)
		if c < n {
			c = n
		}
		if c < 256 {
			c = 256
		}
		s.ints = make([]int, c)
		s.iOff = 0
	}
	out := s.ints[s.iOff : s.iOff+n : s.iOff+n]
	s.iOff += n
	for i := range out {
		out[i] = 0
	}
	return out
}

// Matrix returns a zeroed rows×cols matrix whose header and data both
// live in the arena.
func (s *Scratch) Matrix(rows, cols int) *Matrix {
	if s.mOff == len(s.mats) {
		c := 2 * len(s.mats)
		if c < 8 {
			c = 8
		}
		s.mats = make([]Matrix, c)
		s.mOff = 0
	}
	m := &s.mats[s.mOff]
	s.mOff++
	m.rows, m.cols = rows, cols
	m.data = s.Floats(rows * cols)
	return m
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the shared pool. Pair with PutScratch.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch resets s and returns it to the pool. The caller must not
// touch s or any buffer it handed out afterwards.
func PutScratch(s *Scratch) {
	s.Reset()
	scratchPool.Put(s)
}
