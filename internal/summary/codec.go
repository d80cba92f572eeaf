package summary

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Wire format of a serialized summary (all integers big-endian):
//
//	byte    kind (1 = combined, 2 = split)
//	uint32  monitor ID
//	uint64  epoch
//	uint32  batch size n
//	uint16  rank r
//	uint16  k (centroid count)
//	uint16  centroid width (p for combined, r for split)
//	k ×     uint32 counts
//	k·w ×   float32 centroid elements (row-major)
//	split only:
//	  uint16 p, r × float32 Σ, p·r × float32 V (row-major)
//
// Elements travel as float32: every value is a normalized header field
// (or a factor of such values) in [−1, 1], where float32's ~1e-7
// resolution is far below any matching threshold. Halving the element
// size is what puts the summary transfer cost at the paper's ≈30–35 %
// of raw headers.
//
// Assignments are monitor-local and never serialized.

const codecHeaderSize = 1 + 4 + 8 + 4 + 2 + 2 + 2

// Marshal serializes the summary to its wire format.
func (s *Summary) Marshal() ([]byte, error) {
	if s.Kind != KindCombined && s.Kind != KindSplit {
		return nil, fmt.Errorf("summary: cannot marshal kind %v", s.Kind)
	}
	k := s.Centroids.Rows()
	w := s.Centroids.Cols()
	if len(s.Counts) != k {
		return nil, fmt.Errorf("summary: %d counts for %d centroids", len(s.Counts), k)
	}
	size := codecHeaderSize + 4*k + ElementSize*k*w
	if s.Kind == KindSplit {
		if s.V == nil || len(s.Sigma) != s.Rank || s.V.Cols() != s.Rank {
			return nil, fmt.Errorf("summary: malformed split summary (rank %d, |Σ|=%d)", s.Rank, len(s.Sigma))
		}
		size += 2 + ElementSize*len(s.Sigma) + ElementSize*s.V.Rows()*s.V.Cols()
	}
	buf := make([]byte, 0, size)

	buf = append(buf, byte(s.Kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.MonitorID))
	buf = binary.BigEndian.AppendUint64(buf, s.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.BatchSize))
	buf = binary.BigEndian.AppendUint16(buf, uint16(s.Rank))
	buf = binary.BigEndian.AppendUint16(buf, uint16(k))
	buf = binary.BigEndian.AppendUint16(buf, uint16(w))
	for _, c := range s.Counts {
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
	}
	buf = appendFloats(buf, s.Centroids.Data())
	if s.Kind == KindSplit {
		buf = binary.BigEndian.AppendUint16(buf, uint16(s.V.Rows()))
		buf = appendFloats(buf, s.Sigma)
		buf = appendFloats(buf, s.V.Data())
	}
	return buf, nil
}

// Unmarshal parses a wire-format summary.
func Unmarshal(data []byte) (*Summary, error) {
	if len(data) < codecHeaderSize {
		return nil, fmt.Errorf("summary: truncated header: %d bytes", len(data))
	}
	s := &Summary{}
	s.Kind = Kind(data[0])
	if s.Kind != KindCombined && s.Kind != KindSplit {
		return nil, fmt.Errorf("summary: unknown kind byte %d", data[0])
	}
	s.MonitorID = int(binary.BigEndian.Uint32(data[1:]))
	s.Epoch = binary.BigEndian.Uint64(data[5:])
	s.BatchSize = int(binary.BigEndian.Uint32(data[13:]))
	s.Rank = int(binary.BigEndian.Uint16(data[17:]))
	k := int(binary.BigEndian.Uint16(data[19:]))
	w := int(binary.BigEndian.Uint16(data[21:]))
	off := codecHeaderSize

	if k == 0 || w == 0 {
		return nil, fmt.Errorf("summary: empty centroid block k=%d w=%d", k, w)
	}
	need := 4*k + ElementSize*k*w
	if len(data)-off < need {
		return nil, fmt.Errorf("summary: truncated body: have %d, need %d", len(data)-off, need)
	}
	s.Counts = make([]int, k)
	var total uint64
	for i := range s.Counts {
		c := binary.BigEndian.Uint32(data[off:])
		s.Counts[i] = int(c)
		total += uint64(c)
		off += 4
	}
	// The controller adds these counts into MatchedCount and
	// Stats.PacketsSummarized: a summary must stand for exactly the batch
	// it claims.
	if total != uint64(s.BatchSize) {
		return nil, fmt.Errorf("summary: counts sum to %d, batch size is %d", total, s.BatchSize)
	}
	cdata := make([]float64, k*w)
	var err error
	if off, err = readFloats(data, off, cdata); err != nil {
		return nil, fmt.Errorf("summary: centroids: %w", err)
	}
	s.Centroids, err = linalg.NewMatrixFromData(k, w, cdata)
	if err != nil {
		return nil, err
	}

	if s.Kind == KindSplit {
		if len(data)-off < 2 {
			return nil, fmt.Errorf("summary: truncated split block")
		}
		p := int(binary.BigEndian.Uint16(data[off:]))
		off += 2
		if w != s.Rank {
			return nil, fmt.Errorf("summary: split centroid width %d != rank %d", w, s.Rank)
		}
		need = ElementSize*s.Rank + ElementSize*p*s.Rank
		if len(data)-off < need {
			return nil, fmt.Errorf("summary: truncated split factors: have %d, need %d", len(data)-off, need)
		}
		s.Sigma = make([]float64, s.Rank)
		if off, err = readFloats(data, off, s.Sigma); err != nil {
			return nil, fmt.Errorf("summary: Σ: %w", err)
		}
		vdata := make([]float64, p*s.Rank)
		if off, err = readFloats(data, off, vdata); err != nil {
			return nil, fmt.Errorf("summary: V: %w", err)
		}
		s.V, err = linalg.NewMatrixFromData(p, s.Rank, vdata)
		if err != nil {
			return nil, err
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("summary: %d trailing bytes", len(data)-off)
	}
	return s, nil
}

// EncodedLen computes how many leading bytes of data one encoded
// summary occupies, from the header fields alone — without decoding the
// body. The transport uses it to split a MsgSummary payload into the
// summary proper and an optional trailing trace-context block
// (internal/trace): the summary codec itself stays strict about
// trailing bytes, so the split must happen above it.
func EncodedLen(data []byte) (int, error) {
	if len(data) < codecHeaderSize {
		return 0, fmt.Errorf("summary: truncated header: %d bytes", len(data))
	}
	kind := Kind(data[0])
	if kind != KindCombined && kind != KindSplit {
		return 0, fmt.Errorf("summary: unknown kind byte %d", data[0])
	}
	rank := int(binary.BigEndian.Uint16(data[17:]))
	k := int(binary.BigEndian.Uint16(data[19:]))
	w := int(binary.BigEndian.Uint16(data[21:]))
	n := codecHeaderSize + 4*k + ElementSize*k*w
	if kind == KindSplit {
		if len(data) < n+2 {
			return 0, fmt.Errorf("summary: truncated split block")
		}
		p := int(binary.BigEndian.Uint16(data[n:]))
		n += 2 + ElementSize*rank + ElementSize*p*rank
	}
	if len(data) < n {
		return 0, fmt.Errorf("summary: truncated body: have %d, need %d", len(data), n)
	}
	return n, nil
}

// ElementSize is the wire size in bytes of one summary element (a
// float32).
const ElementSize = 4

func appendFloats(buf []byte, xs []float64) []byte {
	for _, x := range xs {
		buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(float32(x)))
	}
	return buf
}

// readFloats decodes len(dst) elements, refusing NaN and ±Inf (an
// all-ones float32 exponent): a distance to such a centroid is NaN, which
// compares false against every τ_d.
func readFloats(data []byte, off int, dst []float64) (int, error) {
	const expMask = 0x7F800000
	for i := range dst {
		bits := binary.BigEndian.Uint32(data[off:])
		if bits&expMask == expMask {
			return off, fmt.Errorf("element %d is %v", i, math.Float32frombits(bits))
		}
		dst[i] = float64(math.Float32frombits(bits))
		off += 4
	}
	return off, nil
}
