package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// hllMaxRank is the largest register value Add can store: the rank of
// an all-zero 56-bit tail.
const hllMaxRank = 57

// hllRegisters is the fixed register count m. 256 registers give a
// ~6.5 % standard error — plenty for the volumetric verdicts the digest
// feeds (is this epoch 10× flows or 1×?) at 256 bytes on the wire.
const hllRegisters = 256

// hllAlpha is the bias-correction constant α_m for m = 256
// (Flajolet et al. 2007: α_m = 0.7213/(1+1.079/m) for m ≥ 128).
var hllAlpha = 0.7213 / (1 + 1.079/float64(hllRegisters))

// HLL is a fixed-size HyperLogLog cardinality sketch over uint64 keys
// (flow hashes). The zero value is NOT ready; use NewHLL.
type HLL struct {
	registers []uint8
}

// NewHLL builds an empty flow-cardinality sketch.
func NewHLL() *HLL {
	return &HLL{registers: make([]uint8, hllRegisters)}
}

// splitmix64 finalizes a key into a well-mixed 64-bit hash. The flow
// keys fed to Add are already FastHash outputs, but HLL needs every bit
// pattern equally likely; one splitmix round decorrelates cheaply.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Add observes one key. Zero allocations.
func (h *HLL) Add(key uint64) {
	x := splitmix64(key)
	idx := x >> 56 // top 8 bits pick the register (m = 256)
	// Rank of the remaining 56 bits: position of the first 1-bit,
	// counting from 1; all-zero tail saturates at 57.
	tail := x << 8
	rank := uint8(bits.LeadingZeros64(tail)) + 1
	if tail == 0 {
		rank = hllMaxRank
	}
	if rank > h.registers[idx] {
		h.registers[idx] = rank
	}
}

// Estimate returns the cardinality estimate with the standard
// small-range (linear counting) correction.
func (h *HLL) Estimate() uint64 {
	var sum float64
	zeros := 0
	for _, r := range h.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	m := float64(hllRegisters)
	est := hllAlpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return uint64(est + 0.5)
}

// Reset clears the sketch for the next epoch without reallocating.
func (h *HLL) Reset() { clear(h.registers) }

// Merge takes the register-wise max with another sketch; the result
// estimates the cardinality of the union of the two streams, which is
// exact for monitors observing disjoint flow partitions and still sound
// under overlap.
func (h *HLL) Merge(o *HLL) {
	for i, v := range o.registers {
		if v > h.registers[i] {
			h.registers[i] = v
		}
	}
}

// AppendWire serializes the m register bytes.
func (h *HLL) AppendWire(dst []byte) []byte {
	return append(dst, h.registers...)
}

// decodeHLL parses m register bytes into a fresh sketch. A rank Add
// cannot store is refused: Estimate shifts by it, and 1<<r is 0 past 63.
func decodeHLL(p []byte) (*HLL, error) {
	if len(p) < hllRegisters {
		return nil, fmt.Errorf("sketch: hll registers truncated (have %d, need %d)", len(p), hllRegisters)
	}
	h := NewHLL()
	for i, r := range p[:hllRegisters] {
		if r > hllMaxRank {
			return nil, fmt.Errorf("sketch: hll register %d holds rank %d, max %d", i, r, hllMaxRank)
		}
		h.registers[i] = r
	}
	return h, nil
}
