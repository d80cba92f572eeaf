// Package wire defines the length-prefixed binary protocol Jaal's
// monitors and controller speak over their long-lived TCP connections
// (§7): load queries and reports for the flow-assignment module, summary
// requests and uploads for the inference module, raw-batch requests for
// the feedback loop, and alert notifications.
//
// Frame format (big-endian):
//
//	uint32  payload length (excluding this prefix and the type byte)
//	byte    message type
//	[]byte  payload
//
// Payload contents are message-specific and documented per type.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// MsgType discriminates protocol messages.
type MsgType byte

// Protocol message types.
const (
	// MsgLoadQuery (controller→monitor): empty payload.
	MsgLoadQuery MsgType = 1
	// MsgLoadReport (monitor→controller): uint32 monitorID, float64 load.
	MsgLoadReport MsgType = 2
	// MsgSummaryRequest (controller→monitor): uint64 epoch.
	MsgSummaryRequest MsgType = 3
	// MsgSummary (monitor→controller): summary.Marshal payload.
	MsgSummary MsgType = 4
	// MsgSummaryDecline (monitor→controller): uint32 monitorID, uint64
	// epoch, uint32 pending — sent when the buffer holds fewer than
	// n_min packets (§5.1).
	MsgSummaryDecline MsgType = 5
	// MsgRawRequest (controller→monitor): n ≥ 1 refs back to back, each
	// uint64 epoch, uint32 centroid — every centroid one feedback round
	// wants from this monitor, in the controller's order.
	MsgRawRequest MsgType = 6
	// MsgRawBatch (monitor→controller): the answer to one MsgRawRequest,
	// packet.EncodeBatches — n uint32 header counts in request order, then
	// the headers back to back in packet.EncodeBatch's 33-byte format.
	MsgRawBatch MsgType = 7
	// MsgAlert (controller→operator): UTF-8 alert line.
	MsgAlert MsgType = 8
	// MsgHello (monitor→controller): uint32 monitorID; opens a session.
	MsgHello MsgType = 9
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgLoadQuery:
		return "load_query"
	case MsgLoadReport:
		return "load_report"
	case MsgSummaryRequest:
		return "summary_request"
	case MsgSummary:
		return "summary"
	case MsgSummaryDecline:
		return "summary_decline"
	case MsgRawRequest:
		return "raw_request"
	case MsgRawBatch:
		return "raw_batch"
	case MsgAlert:
		return "alert"
	case MsgHello:
		return "hello"
	default:
		return fmt.Sprintf("msg(%d)", byte(t))
	}
}

// MaxFrameSize bounds a frame payload; larger frames are rejected as
// corrupt rather than allocated.
const MaxFrameSize = 64 << 20

// frameHeaderSize is the fixed per-frame overhead: the uint32 length
// prefix plus the type byte.
const frameHeaderSize = 5

// Message is one decoded frame.
type Message struct {
	Type    MsgType
	Payload []byte
}

// frameBufs recycles the buffers WriteFrame assembles frames in.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame writes one frame to w. A frame whose payload fits
// frameAllocChunk — every frame of a working deployment — goes out in a
// single Write: on a TCP connection a header written on its own is a
// segment of its own, which wakes the peer to read five bytes and put it
// back to sleep until the payload follows, doubling the wake-ups of
// every request–response round trip.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("wire: payload of %d bytes exceeds limit", len(payload))
	}
	if len(payload) <= frameAllocChunk {
		bp := frameBufs.Get().(*[]byte)
		buf := appendFrame((*bp)[:0], t, payload)
		_, err := w.Write(buf)
		*bp = buf[:0]
		frameBufs.Put(bp)
		if err != nil {
			return fmt.Errorf("wire: write frame: %w", err)
		}
	} else {
		var hdr [frameHeaderSize]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		hdr[4] = byte(t)
		if _, err := w.Write(hdr[:]); err != nil {
			return fmt.Errorf("wire: write header: %w", err)
		}
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("wire: write payload: %w", err)
		}
	}
	txCounters.count(t, len(payload))
	return nil
}

// AppendFrame appends one frame to dst and returns the extended slice.
// Frames appended back to back leave together through WriteFrames.
func AppendFrame(dst []byte, t MsgType, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrameSize {
		return dst, fmt.Errorf("wire: payload of %d bytes exceeds limit", len(payload))
	}
	return appendFrame(dst, t, payload), nil
}

func appendFrame(dst []byte, t MsgType, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(append(dst, byte(t)), payload...)
}

// WriteFrames writes frames, whole frames built by AppendFrame, to w in
// one Write. It returns how many leading bytes were whole frames that w
// accepted: all of them, or after a failed or short write the offset of
// the first frame not wholly accepted, which is where a retry on a new
// connection resumes without duplicating or skipping a frame. Only the
// accepted frames are counted as sent.
func WriteFrames(w io.Writer, frames []byte) (int, error) {
	n, err := w.Write(frames)
	sent := 0
	for sent+frameHeaderSize <= n {
		size := int(binary.BigEndian.Uint32(frames[sent:]))
		if sent+frameHeaderSize+size > n {
			break
		}
		txCounters.count(MsgType(frames[sent+4]), size)
		sent += frameHeaderSize + size
	}
	if err == nil && sent < len(frames) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return sent, fmt.Errorf("wire: write frames: %w", err)
	}
	return sent, nil
}

// frameAllocChunk caps how much ReadFrame allocates ahead of the bytes
// actually delivered, and how large a frame WriteFrame copies into one
// buffer. Every legitimate frame in the deployment
// (summaries ~10 KB, a monitor's raw batch for one feedback round
// ~20 KB) fits one chunk and takes the
// single-allocation fast path; a corrupt or hostile header claiming up
// to MaxFrameSize grows the buffer only as payload bytes arrive, so a
// lying length prefix costs one chunk of memory, not 64 MB
// (FuzzReadFrame pins this down).
const frameAllocChunk = 64 << 10

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (*Message, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // propagate io.EOF unwrapped for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	msg := &Message{Type: MsgType(hdr[4])}
	switch {
	case n == 0:
	case n <= frameAllocChunk:
		msg.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, msg.Payload); err != nil {
			return nil, fmt.Errorf("wire: read payload: %w", err)
		}
	default:
		var buf bytes.Buffer
		buf.Grow(frameAllocChunk)
		if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("wire: read payload: %w", err)
		}
		msg.Payload = buf.Bytes()
	}
	rxCounters.count(msg.Type, len(msg.Payload))
	return msg, nil
}

// EncodeLoadReport builds a MsgLoadReport payload.
func EncodeLoadReport(monitorID int, load float64) []byte {
	buf := make([]byte, 12)
	binary.BigEndian.PutUint32(buf[0:], uint32(monitorID))
	binary.BigEndian.PutUint64(buf[4:], math.Float64bits(load))
	return buf
}

// DecodeLoadReport parses a MsgLoadReport payload.
func DecodeLoadReport(p []byte) (monitorID int, load float64, err error) {
	if len(p) != 12 {
		return 0, 0, fmt.Errorf("wire: load report of %d bytes, want 12", len(p))
	}
	return int(binary.BigEndian.Uint32(p[0:])), math.Float64frombits(binary.BigEndian.Uint64(p[4:])), nil
}

// EncodeSummaryRequest builds a MsgSummaryRequest payload.
func EncodeSummaryRequest(epoch uint64) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, epoch)
	return buf
}

// DecodeSummaryRequest parses a MsgSummaryRequest payload.
func DecodeSummaryRequest(p []byte) (epoch uint64, err error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("wire: summary request of %d bytes, want 8", len(p))
	}
	return binary.BigEndian.Uint64(p), nil
}

// EncodeSummaryDecline builds a MsgSummaryDecline payload.
func EncodeSummaryDecline(monitorID int, epoch uint64, pending int) []byte {
	buf := make([]byte, 16)
	binary.BigEndian.PutUint32(buf[0:], uint32(monitorID))
	binary.BigEndian.PutUint64(buf[4:], epoch)
	binary.BigEndian.PutUint32(buf[12:], uint32(pending))
	return buf
}

// DecodeSummaryDecline parses a MsgSummaryDecline payload.
func DecodeSummaryDecline(p []byte) (monitorID int, epoch uint64, pending int, err error) {
	if len(p) != 16 {
		return 0, 0, 0, fmt.Errorf("wire: summary decline of %d bytes, want 16", len(p))
	}
	return int(binary.BigEndian.Uint32(p[0:])),
		binary.BigEndian.Uint64(p[4:]),
		int(binary.BigEndian.Uint32(p[12:])), nil
}

// RawRef names one retained centroid a raw request asks for: the epoch
// of the batch it summarizes and its index in that summary.
type RawRef struct {
	Epoch    uint64
	Centroid int
}

// rawRefSize is one RawRef's wire size: uint64 epoch, uint32 centroid.
const rawRefSize = 12

// EncodeRawRequest builds a MsgRawRequest payload. A one-ref request is
// the 12-byte single-centroid request.
func EncodeRawRequest(refs []RawRef) []byte {
	buf := make([]byte, len(refs)*rawRefSize)
	for i, r := range refs {
		binary.BigEndian.PutUint64(buf[i*rawRefSize:], r.Epoch)
		binary.BigEndian.PutUint32(buf[i*rawRefSize+8:], uint32(r.Centroid))
	}
	return buf
}

// DecodeRawRequest parses a MsgRawRequest payload. It refuses an empty
// payload and one that is not a whole number of refs.
func DecodeRawRequest(p []byte) ([]RawRef, error) {
	if len(p) == 0 || len(p)%rawRefSize != 0 {
		return nil, fmt.Errorf("wire: raw request of %d bytes, want a positive multiple of %d", len(p), rawRefSize)
	}
	refs := make([]RawRef, len(p)/rawRefSize)
	for i := range refs {
		b := p[i*rawRefSize:]
		refs[i] = RawRef{Epoch: binary.BigEndian.Uint64(b), Centroid: int(binary.BigEndian.Uint32(b[8:]))}
	}
	return refs, nil
}

// EncodeHello builds a MsgHello payload.
func EncodeHello(monitorID int) []byte {
	buf := make([]byte, 4)
	binary.BigEndian.PutUint32(buf, uint32(monitorID))
	return buf
}

// DecodeHello parses a MsgHello payload.
func DecodeHello(p []byte) (monitorID int, err error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("wire: hello of %d bytes, want 4", len(p))
	}
	return int(binary.BigEndian.Uint32(p)), nil
}
