package wire

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello summaries")
	if err := WriteFrame(&buf, MsgSummary, payload); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgSummary || !bytes.Equal(msg.Payload, payload) {
		t.Fatalf("round trip mismatch: %+v", msg)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgLoadQuery, nil); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgLoadQuery || len(msg.Payload) != 0 {
		t.Fatalf("round trip mismatch: %+v", msg)
	}
}

func TestFrameMultiple(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgHello, EncodeHello(3))
	WriteFrame(&buf, MsgLoadReport, EncodeLoadReport(3, 0.75))
	m1, err := ReadFrame(&buf)
	if err != nil || m1.Type != MsgHello {
		t.Fatalf("first frame: %v %v", m1, err)
	}
	m2, err := ReadFrame(&buf)
	if err != nil || m2.Type != MsgLoadReport {
		t.Fatalf("second frame: %v %v", m2, err)
	}
}

func TestFrameEOF(t *testing.T) {
	var empty bytes.Buffer
	if _, err := ReadFrame(&empty); err != io.EOF {
		t.Fatalf("got %v, want io.EOF on empty stream", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgSummary, []byte("abcdef"))
	trunc := buf.Bytes()[:7] // header + 2 bytes
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload must error")
	}
}

func TestFrameOversized(t *testing.T) {
	// Craft a header claiming a huge payload.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgSummary)}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
	if err := WriteFrame(io.Discard, MsgSummary, make([]byte, MaxFrameSize+1)); err == nil {
		t.Fatal("oversized write must be rejected")
	}
}

// writeLog records the size of every Write it receives.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestWriteFrameIsOneWrite pins that a frame of deployment size is
// handed to the connection whole: a header written ahead of its payload
// costs the peer a wake-up per half.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, n := range []int{0, 12, 11337, frameAllocChunk} {
		var w writeLog
		payload := bytes.Repeat([]byte{0xA5}, n)
		if err := WriteFrame(&w, MsgSummary, payload); err != nil {
			t.Fatal(err)
		}
		if len(w.sizes) != 1 || w.sizes[0] != frameHeaderSize+n {
			t.Fatalf("payload of %d bytes went out as writes of %v, want one of %d", n, w.sizes, frameHeaderSize+n)
		}
		msg, err := ReadFrame(&w)
		if err != nil || msg.Type != MsgSummary || !bytes.Equal(msg.Payload, payload) {
			t.Fatalf("payload of %d bytes: read back %v, %v", n, msg, err)
		}
	}
	// Past the chunk the payload is not copied; it follows its header.
	var w writeLog
	payload := make([]byte, frameAllocChunk+1)
	if err := WriteFrame(&w, MsgSummary, payload); err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) != 2 || w.sizes[0] != frameHeaderSize || w.sizes[1] != len(payload) {
		t.Fatalf("large frame went out as writes of %v", w.sizes)
	}
	if msg, err := ReadFrame(&w); err != nil || len(msg.Payload) != len(payload) {
		t.Fatalf("large frame: read back %v", err)
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	id, load, err := DecodeLoadReport(EncodeLoadReport(42, 3.14))
	if err != nil || id != 42 || load != 3.14 {
		t.Fatalf("round trip: %d %v %v", id, load, err)
	}
	if _, _, err := DecodeLoadReport([]byte{1}); err == nil {
		t.Fatal("short load report must error")
	}
}

func TestSummaryRequestRoundTrip(t *testing.T) {
	e, err := DecodeSummaryRequest(EncodeSummaryRequest(77))
	if err != nil || e != 77 {
		t.Fatalf("round trip: %d %v", e, err)
	}
	if _, err := DecodeSummaryRequest(nil); err == nil {
		t.Fatal("short request must error")
	}
}

func TestSummaryDeclineRoundTrip(t *testing.T) {
	id, e, pending, err := DecodeSummaryDecline(EncodeSummaryDecline(9, 33, 512))
	if err != nil || id != 9 || e != 33 || pending != 512 {
		t.Fatalf("round trip: %d %d %d %v", id, e, pending, err)
	}
	if _, _, _, err := DecodeSummaryDecline([]byte{1, 2}); err == nil {
		t.Fatal("short decline must error")
	}
}

func TestRawRequestRoundTrip(t *testing.T) {
	e, c, err := DecodeRawRequest(EncodeRawRequest(5, 17))
	if err != nil || e != 5 || c != 17 {
		t.Fatalf("round trip: %d %d %v", e, c, err)
	}
	if _, _, err := DecodeRawRequest([]byte{}); err == nil {
		t.Fatal("short raw request must error")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	id, err := DecodeHello(EncodeHello(12))
	if err != nil || id != 12 {
		t.Fatalf("round trip: %d %v", id, err)
	}
	if _, err := DecodeHello([]byte{0}); err == nil {
		t.Fatal("short hello must error")
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgLoadQuery: "load_query", MsgSummary: "summary",
		MsgRawBatch: "raw_batch", MsgHello: "hello",
		MsgType(10): "msg(10)", MsgType(200): "msg(200)",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", byte(ty), got, want)
		}
	}
}

// Property: frames round-trip arbitrary payloads.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(ty byte, payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, MsgType(ty), payload); err != nil {
			return false
		}
		msg, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return msg.Type == MsgType(ty) && bytes.Equal(msg.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
