package trace

import (
	"encoding/binary"
	"fmt"
)

// Context is the compact trace-context block a monitor appends to its
// MsgSummary payload: every span staged since the last poll, plus the
// send timestamp the controller uses to shift the spans into its own
// clock (AddRemoteContext).
//
// Wire format (big-endian), appended after the summary bytes — the
// summary's own length is computable from its header
// (summary.EncodedLen), so the receiver splits the payload without a
// length prefix:
//
//	byte[2]  magic "JT"
//	byte     version (1)
//	byte     flags (0, reserved)
//	uint32   monitor ID
//	int64    send time, Unix nanoseconds
//	uint16   span count
//	span ×   byte stage, uint64 seq, int64 start (Unix ns), int64 dur (ns)
//
// Version tolerance: a receiver that sees the magic with an unknown
// version ignores the whole block (DecodeContext returns nil, nil), so
// a newer monitor interops with an older controller's tracer and vice
// versa; with tracing disabled no block is sent at all, which is how
// pre-trace peers see today's frames, byte-identical.
type Context struct {
	// MonitorID is the sending monitor.
	MonitorID int
	// SentUnixNano is the monitor's clock at context assembly.
	SentUnixNano int64
	// Spans are the staged spans, Proc/Monitor already stamped.
	Spans []SpanRecord
}

const (
	ctxMagic0 = 'J'
	ctxMagic1 = 'T'
	// ctxVersion is the current trace-context block version.
	ctxVersion = 1
	// ctxHeaderSize is magic + version + flags + monitorID + sent + count.
	ctxHeaderSize = 2 + 1 + 1 + 4 + 8 + 2
	// ctxSpanSize is one encoded span: stage + seq + start + dur.
	ctxSpanSize = 1 + 8 + 8 + 8
	// maxContextSpans bounds a decoded block; a monitor stages at most
	// maxStagedSpans, so anything above is corrupt.
	maxContextSpans = maxStagedSpans
)

// AppendWire appends the context's wire encoding to dst.
func (c *Context) AppendWire(dst []byte) []byte {
	// Byte 3 is the reserved flags byte: written zero today, and ignored
	// by decoders for forward compatibility.
	dst = append(dst, ctxMagic0, ctxMagic1, ctxVersion, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.MonitorID))
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.SentUnixNano))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(c.Spans)))
	for _, s := range c.Spans {
		dst = append(dst, byte(s.Stage))
		dst = binary.BigEndian.AppendUint64(dst, s.Seq)
		dst = binary.BigEndian.AppendUint64(dst, uint64(s.Start))
		dst = binary.BigEndian.AppendUint64(dst, uint64(s.Dur))
	}
	return dst
}

// DecodeContext parses a trace-context block. A block with the right
// magic but an unknown version decodes to (nil, nil) — the
// version-tolerance contract — while truncation, a bad magic or an
// inconsistent length is an error: the block rides a summary frame
// whose boundaries are exact, so any mismatch means corruption.
func DecodeContext(p []byte) (*Context, error) {
	if len(p) < ctxHeaderSize {
		return nil, fmt.Errorf("trace: context block of %d bytes, want >= %d", len(p), ctxHeaderSize)
	}
	if p[0] != ctxMagic0 || p[1] != ctxMagic1 {
		return nil, fmt.Errorf("trace: bad context magic %#x%x", p[0], p[1])
	}
	if p[2] != ctxVersion {
		return nil, nil // future version: ignore, stay interoperable
	}
	n := int(binary.BigEndian.Uint16(p[16:]))
	if n > maxContextSpans {
		return nil, fmt.Errorf("trace: context claims %d spans, limit %d", n, maxContextSpans)
	}
	if want := ctxHeaderSize + n*ctxSpanSize; len(p) != want {
		return nil, fmt.Errorf("trace: context block of %d bytes, want %d for %d spans", len(p), want, n)
	}
	c := &Context{
		MonitorID:    int(binary.BigEndian.Uint32(p[4:])),
		SentUnixNano: int64(binary.BigEndian.Uint64(p[8:])),
	}
	off := ctxHeaderSize
	if n > 0 {
		c.Spans = make([]SpanRecord, n)
	}
	for i := 0; i < n; i++ {
		c.Spans[i] = SpanRecord{
			Stage:   Stage(p[off]),
			Proc:    int32(c.MonitorID),
			Monitor: int32(c.MonitorID),
			Seq:     binary.BigEndian.Uint64(p[off+1:]),
			Start:   int64(binary.BigEndian.Uint64(p[off+9:])),
			Dur:     int64(binary.BigEndian.Uint64(p[off+17:])),
		}
		off += ctxSpanSize
	}
	return c, nil
}
