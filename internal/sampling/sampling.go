// Package sampling provides the packet-sampling baseline the paper
// compares against (§8, Table 1): reservoir sampling (Vitter 1985).
//
// Reservoir sampling keeps a fixed-size uniform sample of the whole
// stream; because attack packets sent over a short interval get diluted
// by the far more numerous benign packets, fine-grained signatures are
// poorly represented in the sample — the failure mode Table 1 measures.
package sampling

import (
	"fmt"
	"math/rand"

	"repro/internal/packet"
)

// Reservoir maintains a uniform random sample of a packet stream.
type Reservoir struct {
	size int
	rng  *rand.Rand
	seen int
	buf  []packet.Header
}

// NewReservoir builds a reservoir of the given size. The paper's Table 1
// configuration uses size 250 against batches of 1000 to match Jaal's
// communication budget at r=12, k=200, n=1000.
func NewReservoir(size int, rng *rand.Rand) (*Reservoir, error) {
	if size < 1 {
		return nil, fmt.Errorf("sampling: reservoir size %d < 1", size)
	}
	if rng == nil {
		return nil, fmt.Errorf("sampling: nil rng")
	}
	return &Reservoir{size: size, rng: rng, buf: make([]packet.Header, 0, size)}, nil
}

// Observe feeds one packet through the sampler (Algorithm R).
func (r *Reservoir) Observe(h packet.Header) {
	r.seen++
	if len(r.buf) < r.size {
		r.buf = append(r.buf, h)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.size {
		r.buf[j] = h
	}
}

// Seen returns how many packets have been observed.
func (r *Reservoir) Seen() int { return r.seen }

// Sample returns a copy of the current sample.
func (r *Reservoir) Sample() []packet.Header {
	out := make([]packet.Header, len(r.buf))
	copy(out, r.buf)
	return out
}

// Reset empties the reservoir for the next epoch.
func (r *Reservoir) Reset() {
	r.buf = r.buf[:0]
	r.seen = 0
}

// ScaleFactor returns seen/len(sample): multiply per-sample counts by
// this to estimate stream counts.
func (r *Reservoir) ScaleFactor() float64 {
	if len(r.buf) == 0 {
		return 0
	}
	return float64(r.seen) / float64(len(r.buf))
}
