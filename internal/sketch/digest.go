package sketch

import (
	"cmp"
	"encoding/binary"
	"fmt"
)

// The digest rides as a version-tolerant trailer after the summary
// bytes in a MsgSummary payload (same side-channel pattern as the trace
// trailer): magic "JS", a version byte, a flags byte, then a u32 block
// length covering the whole block. Unlike the trace trailer, the block
// length makes the digest skippable, so it must sit BEFORE the trace
// trailer (which claims everything to the end of the payload).
const (
	digestMagic0  = 'J'
	digestMagic1  = 'S'
	digestVersion = 1
	// digestMaxHitters bounds the per-dimension heavy-hitter list.
	digestMaxHitters = 255
)

// HeavyHitter is one heavy key (an IPv4 address in the ingest digests)
// and its count-min estimate.
type HeavyHitter struct {
	Key   uint32
	Count uint64
}

// compare orders a digest list: count descending, key ascending on ties.
func (h HeavyHitter) compare(o HeavyHitter) int {
	return cmp.Or(cmp.Compare(o.Count, h.Count), cmp.Compare(h.Key, o.Key))
}

// Digest is a monitor's per-epoch sketch summary: shed accounting
// totals, the flow-cardinality registers, and the top heavy hitters by
// destination and source. It is what the controller gets "for free"
// alongside the summaries to issue volumetric verdicts without raw
// fetches.
type Digest struct {
	MonitorID int
	Epoch     uint64
	// Offered/Shed/Kept are the epoch's packet accounting: every packet
	// offered to Ingest, the subset shed before the batch slab, and the
	// subset admitted (Offered = Shed + Kept). Offered is the honest
	// pre-shed traffic volume the controller should weight by.
	Offered uint64
	Shed    uint64
	Kept    uint64
	// Flows is the flow-cardinality sketch (nil only in hand-built
	// digests; the codec always carries registers).
	Flows *HLL
	// TopDst and TopSrc are the heaviest destination and source
	// addresses with their count-min estimates, descending.
	TopDst []HeavyHitter
	TopSrc []HeavyHitter
}

// FlowEstimate returns the estimated distinct-flow count.
func (d *Digest) FlowEstimate() uint64 {
	if d.Flows == nil {
		return 0
	}
	return d.Flows.Estimate()
}

// IsDigest reports whether p begins with a sketch-digest trailer.
func IsDigest(p []byte) bool {
	return len(p) >= 2 && p[0] == digestMagic0 && p[1] == digestMagic1
}

// AppendWire serializes the digest block: magic "JS", version, flags,
// u32 block length, u32 monitor ID, u64 epoch, u64 offered, u64 shed,
// u64 kept, u16 register count + registers, then the two heavy-hitter
// lists as u8 count + (u32 key, u64 estimate) pairs.
func (d *Digest) AppendWire(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, digestMagic0, digestMagic1, digestVersion, 0)
	dst = binary.BigEndian.AppendUint32(dst, 0) // block length, patched below
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.MonitorID))
	dst = binary.BigEndian.AppendUint64(dst, d.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, d.Offered)
	dst = binary.BigEndian.AppendUint64(dst, d.Shed)
	dst = binary.BigEndian.AppendUint64(dst, d.Kept)
	flows := d.Flows
	if flows == nil {
		flows = NewHLL()
	}
	dst = binary.BigEndian.AppendUint16(dst, hllRegisters)
	dst = flows.AppendWire(dst)
	for _, hh := range [][]HeavyHitter{d.TopDst, d.TopSrc} {
		if len(hh) > digestMaxHitters {
			hh = hh[:digestMaxHitters]
		}
		dst = append(dst, byte(len(hh)))
		for _, h := range hh {
			dst = binary.BigEndian.AppendUint32(dst, h.Key)
			dst = binary.BigEndian.AppendUint64(dst, h.Count)
		}
	}
	binary.BigEndian.PutUint32(dst[start+4:], uint32(len(dst)-start))
	return dst
}

// DecodeDigest parses a digest block from the front of p and returns
// the digest plus the number of bytes consumed. A block with an unknown
// version is skipped: (nil, blockLen, nil), so readers stay compatible
// with future senders. Anything malformed is an error, and so is what
// no honest Ingest.Digest produces: shed + kept != offered, a hitter
// count above offered, an HLL rank above hllMaxRank, or a hitter list
// out of compare's order (which also forbids duplicates).
func DecodeDigest(p []byte) (*Digest, int, error) {
	if len(p) < 8 {
		return nil, 0, fmt.Errorf("sketch: digest header truncated (%d bytes)", len(p))
	}
	if p[0] != digestMagic0 || p[1] != digestMagic1 {
		return nil, 0, fmt.Errorf("sketch: bad digest magic %q", p[:2])
	}
	blockLen := int(binary.BigEndian.Uint32(p[4:8]))
	if blockLen < 8 || blockLen > len(p) {
		return nil, 0, fmt.Errorf("sketch: digest block length %d out of range (payload %d)", blockLen, len(p))
	}
	if p[2] != digestVersion {
		// Version-tolerant: skip the whole block.
		return nil, blockLen, nil
	}
	body := p[8:blockLen]
	const fixed = 4 + 8 + 8 + 8 + 8 + 2
	if len(body) < fixed {
		return nil, 0, fmt.Errorf("sketch: digest body truncated (%d bytes)", len(body))
	}
	d := &Digest{
		MonitorID: int(binary.BigEndian.Uint32(body[0:4])),
		Epoch:     binary.BigEndian.Uint64(body[4:12]),
		Offered:   binary.BigEndian.Uint64(body[12:20]),
		Shed:      binary.BigEndian.Uint64(body[20:28]),
		Kept:      binary.BigEndian.Uint64(body[28:36]),
	}
	if d.Shed > d.Offered || d.Offered-d.Shed != d.Kept {
		return nil, 0, fmt.Errorf("sketch: digest shed %d + kept %d != offered %d", d.Shed, d.Kept, d.Offered)
	}
	regs := int(binary.BigEndian.Uint16(body[36:38]))
	if regs != hllRegisters {
		return nil, 0, fmt.Errorf("sketch: digest v1 carries %d hll registers, got %d", hllRegisters, regs)
	}
	body = body[fixed:]
	flows, err := decodeHLL(body)
	if err != nil {
		return nil, 0, err
	}
	d.Flows = flows
	body = body[hllRegisters:]
	for i := 0; i < 2; i++ {
		if len(body) < 1 {
			return nil, 0, fmt.Errorf("sketch: digest heavy-hitter list %d truncated", i)
		}
		n := int(body[0])
		body = body[1:]
		if len(body) < n*12 {
			return nil, 0, fmt.Errorf("sketch: digest heavy-hitter entries truncated (have %d, need %d)", len(body), n*12)
		}
		hh := make([]HeavyHitter, n)
		for j := range hh {
			hh[j].Key = binary.BigEndian.Uint32(body[j*12:])
			hh[j].Count = binary.BigEndian.Uint64(body[j*12+4:])
			if hh[j].Count > d.Offered {
				return nil, 0, fmt.Errorf("sketch: digest heavy-hitter list %d entry %d count %d exceeds offered %d", i, j, hh[j].Count, d.Offered)
			}
			if j > 0 && hh[j-1].compare(hh[j]) >= 0 {
				return nil, 0, fmt.Errorf("sketch: digest heavy-hitter list %d entry %d out of order (count descending, key ascending)", i, j)
			}
		}
		body = body[n*12:]
		if i == 0 {
			d.TopDst = hh
		} else {
			d.TopSrc = hh
		}
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("sketch: %d trailing bytes inside digest block", len(body))
	}
	return d, blockLen, nil
}
