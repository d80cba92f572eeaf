package summary

import (
	"repro/internal/packet"
	"repro/internal/trace"
)

// Batch couples a full batch of raw headers with its summary-ready state.
type Batch struct {
	// Headers are the buffered packet headers in arrival order.
	Headers []packet.Header
	// Epoch is the batch's unique sequence number at this monitor. It
	// travels inside the summary so the controller can reference the
	// exact batch when it requests raw packets, even when several
	// batches seal within one controller tick.
	Epoch uint64
	// FirstNano and SealedNano bound the batch's capture window (Unix
	// nanoseconds): first header buffered to seal. Both are zero unless
	// epoch tracing was enabled while the batch filled — the clock reads
	// live in internal/trace (trace.NowNano), cost one atomic load when
	// tracing is off, and feed nothing but the capture span, so sealed
	// batches and summaries are identical either way.
	FirstNano, SealedNano int64
	// Shed counts the packets the sketch pass dropped before this batch
	// while it filled: Headers represents len(Headers)+Shed offered
	// packets, so summaries over subsampled batches stay honestly
	// weighted. Zero whenever shedding is off.
	Shed uint64
}

// ShedFraction returns the fraction of the batch's offered packets that
// were shed before buffering (0 when nothing was shed).
func (b *Batch) ShedFraction() float64 {
	offered := uint64(len(b.Headers)) + b.Shed
	if offered == 0 {
		return 0
	}
	return float64(b.Shed) / float64(offered)
}

// Buffer accumulates packet headers at a monitor until a batch of the
// configured size is full (§4.1). It also implements the short-lived
// centroid→raw-packets table of §7: after a batch is summarized, the raw
// headers are retained — keyed by batch sequence and centroid index — so
// the controller's feedback loop can request them (§5.3). Retention
// expires two controller ticks after sealing, matching the paper's
// per-epoch hash-table deletion.
//
// Buffer is not safe for concurrent use; each monitor owns one.
type Buffer struct {
	batchSize int
	pending   []packet.Header
	// firstNano stamps the current batch's first buffered header (0
	// while tracing is off; see Batch.FirstNano).
	firstNano int64
	// seq numbers sealed batches.
	seq uint64
	// shed counts packets dropped by the sketch pass since the last
	// seal; stamped onto the next sealed batch (see NoteShed).
	shed uint64
	// tick is the controller-tick clock driven by AdvanceEpoch.
	tick uint64

	retained map[uint64]*retainedBatch
}

// retainedBatch is one batch's centroid→raw-packets table: the headers
// grouped by centroid in one slab (arrival order within a centroid), and
// the k+1 group boundaries. Centroid c owns
// headers[offsets[c]:offsets[c+1]].
type retainedBatch struct {
	headers    []packet.Header
	offsets    []int
	sealedTick uint64
}

// NewBuffer returns a Buffer sealing batches of batchSize packets.
func NewBuffer(batchSize int) *Buffer {
	if batchSize < 1 {
		panic("summary: batch size must be ≥ 1")
	}
	return &Buffer{
		batchSize: batchSize,
		pending:   make([]packet.Header, 0, batchSize),
		retained:  make(map[uint64]*retainedBatch),
	}
}

// Add buffers one header. When the buffer reaches the batch size it seals
// and returns the batch (and a true flag); otherwise it returns nil, false.
func (b *Buffer) Add(h packet.Header) (*Batch, bool) {
	b.pending = append(b.pending, h)
	if len(b.pending) == 1 {
		b.firstNano = trace.NowNano()
	}
	if len(b.pending) < b.batchSize {
		return nil, false
	}
	return b.seal(), true
}

// Pending returns the number of packets buffered but not yet sealed.
func (b *Buffer) Pending() int { return len(b.pending) }

// NoteShed records n packets dropped by the sketch pass instead of
// buffered. The running count is stamped onto the next sealed batch so
// per-batch accounting stays honest: a fully-shed window (Flush with
// nothing pending) seals no batch and advances no sequence number, and
// its shed count carries over to the next batch that does seal.
func (b *Buffer) NoteShed(n int) { b.shed += uint64(n) }

// ShedPending returns the shed count accumulated since the last seal.
func (b *Buffer) ShedPending() uint64 { return b.shed }

// Flush seals whatever is buffered, returning nil when empty. It is used
// when the controller polls monitors for summaries mid-batch (§5.1).
func (b *Buffer) Flush() *Batch {
	if len(b.pending) == 0 {
		return nil
	}
	return b.seal()
}

func (b *Buffer) seal() *Batch {
	batch := &Batch{Headers: b.pending, Epoch: b.seq, FirstNano: b.firstNano, SealedNano: trace.NowNano(), Shed: b.shed}
	b.seq++
	b.pending = make([]packet.Header, 0, b.batchSize)
	b.firstNano = 0
	b.shed = 0
	return batch
}

// Retain records the centroid→packets mapping for a summarized batch so
// that raw packets can be served to the feedback loop. The table is a
// counting sort of the batch by s.Assignments: two slabs per batch, not
// a slice per centroid grown packet by packet.
func (b *Buffer) Retain(batch *Batch, s *Summary) {
	k := s.K()
	offsets := make([]int, k+1)
	for _, c := range s.Assignments {
		offsets[c+1]++
	}
	for c := 0; c < k; c++ {
		offsets[c+1] += offsets[c]
	}
	headers := make([]packet.Header, len(s.Assignments))
	for i, c := range s.Assignments {
		headers[offsets[c]] = batch.Headers[i]
		offsets[c]++
	}
	// Placing advanced every offsets[c] to the end of group c, which is
	// the start of group c+1: shift back.
	copy(offsets[1:], offsets[:k])
	offsets[0] = 0
	b.retained[batch.Epoch] = &retainedBatch{headers: headers, offsets: offsets, sealedTick: b.tick}
}

// RawPackets returns the raw headers that were assigned to the given
// centroid in the batch with the given sequence number, or nil when the
// batch's retention has expired. The centroid index arrives from the wire
// (MsgRawRequest), so one the batch's summary never had — negative, or at
// or past its k — is answered with nil like any other miss. The result
// aliases the retained slab and must not be written to; its capacity is
// capped so that an append cannot reach the next centroid's packets.
func (b *Buffer) RawPackets(epoch uint64, centroid int) []packet.Header {
	rb, ok := b.retained[epoch]
	if !ok || centroid < 0 || centroid >= len(rb.offsets)-1 {
		return nil
	}
	lo, hi := rb.offsets[centroid], rb.offsets[centroid+1]
	if lo == hi {
		return nil
	}
	return rb.headers[lo:hi:hi]
}

// AdvanceEpoch moves the buffer to the next controller tick, expiring
// retention for batches sealed before the previous tick. The monitor
// calls this on the controller's epoch tick (every 2 s in the paper's
// deployment).
func (b *Buffer) AdvanceEpoch() uint64 {
	b.tick++
	// The expiry predicate is per-entry, so which order entries are
	// visited cannot change which survive.
	//jaalvet:ignore mapiter — per-entry expiry; the deletion set is independent of iteration order
	for seq, rb := range b.retained {
		if rb.sealedTick+1 < b.tick {
			delete(b.retained, seq)
		}
	}
	return b.tick
}

// Epoch returns the current controller-tick clock.
func (b *Buffer) Epoch() uint64 { return b.tick }
