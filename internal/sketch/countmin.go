// Package sketch implements the per-epoch ingest sketches: a count-min
// sketch for heavy-hitter estimates and a HyperLogLog flow-cardinality
// sketch. The paper discusses sketches as the targeted-measurement
// baseline (§2, §8): strong per-query guarantees bound to one
// pre-declared dimension, which is why covering arbitrary header-field
// correlations needs a combinatorial number of them — the scaling
// argument motivating Jaal's summaries. Here they play the AMON role
// instead: a cheap pass *in front of* the expensive summarizer that
// classifies flows as heavy or mice so a monitor can shed load under
// overload, and a compact digest the controller can use for volumetric
// verdicts without raw fetches.
package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// FNV-1a constants (hash/fnv), inlined so the hot path never constructs
// a hasher.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvFold4 folds the four big-endian bytes of v into an FNV-1a state.
func fnvFold4(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v>>24)) * fnvPrime64
	h = (h ^ uint64(v>>16&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>8&0xff)) * fnvPrime64
	return (h ^ uint64(v&0xff)) * fnvPrime64
}

// fnvFold8 folds the eight big-endian bytes of v into an FNV-1a state.
func fnvFold8(h, v uint64) uint64 {
	return fnvFold4(fnvFold4(h, uint32(v>>32)), uint32(v))
}

// CountMin is a count-min sketch over uint64 keys.
type CountMin struct {
	width int
	// counts is the depth×width matrix stored flat (row-major): one
	// allocation, cache-friendly rows, and Reset is a single clear.
	counts []uint64
	// rowBase[r] is the FNV-1a state after folding row r's full 8-byte
	// salt, so hash() equals hashing the 16-byte concatenation salt‖key
	// without touching a buffer.
	rowBase []uint64
	// rowBase32[r] is rowBase[r] with four more zero bytes folded in
	// (folding a zero byte is h *= prime): the state every key below
	// 2³² — every IPv4 address — reaches after its upper half, so such
	// keys fold only their four significant bytes.
	rowBase32 []uint64
	// recip is ⌊(2⁶⁴−1)/width⌋, the reciprocal mod() multiplies by
	// instead of dividing.
	recip uint64
	total uint64
}

// NewCountMin builds a sketch with error bound epsilon (relative to the
// stream total) at failure probability delta: width = ⌈e/ε⌉, depth =
// ⌈ln(1/δ)⌉ (Cormode & Muthukrishnan).
func NewCountMin(epsilon, delta float64) (*CountMin, error) {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("sketch: need 0<ε<1 and 0<δ<1, got %v, %v", epsilon, delta)
	}
	w := int(math.Ceil(math.E / epsilon))
	d := int(math.Ceil(math.Log(1 / delta)))
	return newCountMinDims(w, d), nil
}

// newCountMinDims builds a sketch with explicit dimensions, both ≥ 1.
func newCountMinDims(width, depth int) *CountMin {
	cm := &CountMin{
		width:     width,
		counts:    make([]uint64, width*depth),
		rowBase:   make([]uint64, depth),
		rowBase32: make([]uint64, depth),
		recip:     math.MaxUint64 / uint64(width),
	}
	for r := range cm.rowBase {
		cm.rowBase[r] = fnvFold8(fnvOffset64, uint64(r))
		cm.rowBase32[r] = fnvFold4(cm.rowBase[r], 0)
	}
	return cm
}

// mod returns h % width without dividing. recip is within 1 below
// 2⁶⁴/width, so the high half of h·recip is ⌊h/width⌋ or one less, and
// what that leaves of h is the remainder or the remainder plus width.
// Width is subtracted and, if that borrowed, added back — by mask, not
// by branch, because no predictor can learn which hash needs it. Equal
// to % for every 64-bit h and every width ≥ 1.
func (c *CountMin) mod(h uint64) uint64 {
	w := uint64(c.width)
	q, _ := bits.Mul64(h, c.recip)
	r, borrow := bits.Sub64(h-q*w, w, 0)
	return r + w&-borrow
}

// hash computes the row's bucket for a key: FNV-1a over the 16-byte
// big-endian concatenation of the row salt and the key, reduced mod
// width. The salt half is precomputed into rowBase, and for a key below
// 2³² so is its zero upper half (rowBase32). Zero allocations.
func (c *CountMin) hash(row int, key uint64) int {
	state := c.rowBase32[row]
	if hi := uint32(key >> 32); hi != 0 {
		state = fnvFold4(c.rowBase[row], hi)
	}
	return int(c.mod(fnvFold4(state, uint32(key))))
}

// Add increments the key's count and returns its new estimate: the
// minimum of the cells just incremented, which are the cells Estimate
// reads. The loop body is hash() written out, because hash is past the
// compiler's inlining budget and this is the per-packet path.
func (c *CountMin) Add(key uint64, delta uint64) uint64 {
	min := uint64(math.MaxUint64)
	hi, lo := uint32(key>>32), uint32(key)
	for row, state := range c.rowBase32 {
		if hi != 0 {
			state = fnvFold4(c.rowBase[row], hi)
		}
		cell := &c.counts[row*c.width+int(c.mod(fnvFold4(state, lo)))]
		*cell += delta
		if *cell < min {
			min = *cell
		}
	}
	c.total += delta
	return min
}

// Estimate returns the (over-)estimate of the key's count.
func (c *CountMin) Estimate(key uint64) uint64 {
	min := uint64(math.MaxUint64)
	for row := range c.rowBase {
		if v := c.counts[row*c.width+c.hash(row, key)]; v < min {
			min = v
		}
	}
	return min
}

// Total returns the stream total.
func (c *CountMin) Total() uint64 { return c.total }

// Reset clears the sketch for the next epoch without reallocating.
func (c *CountMin) Reset() {
	clear(c.counts)
	c.total = 0
}

// SizeBytes returns the serialized size: the communication cost a
// monitor would pay shipping this sketch, used in the paper's §2
// back-of-envelope comparison.
func (c *CountMin) SizeBytes() int { return len(c.counts) * 8 }

// Width and Depth expose the dimensions.
func (c *CountMin) Width() int { return c.width }

// Depth returns the number of hash rows.
func (c *CountMin) Depth() int { return len(c.rowBase) }

// CombinationCost returns the §2 scaling argument in numbers: the bytes
// needed to cover every subset of f header fields with one sketch each of
// the given per-sketch size. For f = 18 and 500 KB sketches this is the
// paper's ≈128 GB per monitor per epoch.
func CombinationCost(fields int, perSketchBytes int) uint64 {
	return (uint64(1) << uint(fields)) * uint64(perSketchBytes)
}
