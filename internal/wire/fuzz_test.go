package wire

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/sketch"
	"repro/internal/trace"
)

// Native Go fuzzing over the wire decode surface: ReadFrame (the only
// function that sizes allocations from attacker-controlled bytes) and
// every fixed-layout Decode*. The properties under test:
//
//   - no input panics, overreads, or allocates past the frame bound;
//   - every accepted input round-trips: decode → encode → identical
//     bytes, so a fuzzer that finds an accepted-but-misread frame
//     fails loudly instead of silently corrupting an epoch.

// seedFrame writes one valid frame into the corpus.
func seedFrame(f *testing.F, t MsgType, payload []byte) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, t, payload); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
}

func FuzzReadFrame(f *testing.F) {
	seedFrame(f, MsgLoadQuery, nil)
	seedFrame(f, MsgLoadReport, EncodeLoadReport(3, 1234.5))
	seedFrame(f, MsgSummaryRequest, EncodeSummaryRequest(9))
	seedFrame(f, MsgSummaryDecline, EncodeSummaryDecline(1, 2, 3))
	seedFrame(f, MsgRawRequest, EncodeRawRequest(4, 5))
	seedFrame(f, MsgHello, EncodeHello(12))
	seedFrame(f, MsgAlert, []byte("ALERT syn_flood sid=10002"))
	// A summary frame carrying a trace-context trailer: with tracing on,
	// monitors append the block after the summary bytes (see
	// internal/trace.Context), so framed payloads with a "JT" trailer
	// are part of the production input space.
	tctx := trace.Context{MonitorID: 2, SentUnixNano: 1_000, Spans: []trace.SpanRecord{
		{Stage: trace.StageCapture, Seq: 7, Start: 500, Dur: 50},
	}}
	seedFrame(f, MsgSummary, tctx.AppendWire([]byte("summary-bytes")))
	// Summary frames carrying a sketch-digest trailer ("JS" block, see
	// internal/sketch.Digest): monitors running the sketch pass append
	// it between the summary bytes and the trace context, so both
	// trailer orders — digest alone and digest followed by trace — are
	// production frames.
	dg := sketch.Digest{
		MonitorID: 2, Epoch: 9, Offered: 20000, Shed: 12000, Kept: 8000,
		TopDst: []sketch.HeavyHitter{{Key: 0x0A00002A, Count: 9000}},
		TopSrc: []sketch.HeavyHitter{{Key: 0xC0A80001, Count: 8800}},
	}
	seedFrame(f, MsgSummary, dg.AppendWire([]byte("summary-bytes")))
	seedFrame(f, MsgSummary, tctx.AppendWire(dg.AppendWire([]byte("summary-bytes"))))
	// A digest trailer with an unknown version byte (position: after the
	// 13-byte mock summary, past the "JS" magic), which decoders must
	// skip by block length.
	futureDigest := dg.AppendWire([]byte("summary-bytes"))
	futureDigest[13+2] = 0x7f
	seedFrame(f, MsgSummary, futureDigest)
	// A frame of a type this protocol does not define: framing is
	// type-blind, and the counters book it under "other".
	seedFrame(f, MsgType(0xfe), []byte("future"))
	// A header that promises far more than it delivers.
	f.Add([]byte{0x00, 0x10, 0x00, 0x00, byte(MsgSummary), 1, 2, 3})
	// A header past MaxFrameSize.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgSummary)})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(msg.Payload) > MaxFrameSize {
			t.Fatalf("accepted payload of %d bytes past MaxFrameSize", len(msg.Payload))
		}
		if len(msg.Payload) > len(data) {
			t.Fatalf("payload of %d bytes from %d input bytes: overread", len(msg.Payload), len(data))
		}
		// Round trip: re-encoding the message and re-reading it must
		// reproduce it exactly.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg.Type, msg.Payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		again, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-read of accepted frame failed: %v", err)
		}
		if again.Type != msg.Type || !bytes.Equal(again.Payload, msg.Payload) {
			t.Fatalf("frame did not round-trip: %v/%d bytes vs %v/%d bytes",
				msg.Type, len(msg.Payload), again.Type, len(again.Payload))
		}
	})
}

func FuzzDecodeLoadReport(f *testing.F) {
	f.Add(EncodeLoadReport(0, 0))
	f.Add(EncodeLoadReport(41, 99031.25))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, load, err := DecodeLoadReport(p)
		if err != nil {
			return
		}
		if id < 0 {
			t.Fatalf("negative monitor ID %d from a uint32 field", id)
		}
		if math.IsNaN(load) {
			return // NaN payload bits need not round-trip through the FPU
		}
		if got := EncodeLoadReport(id, load); !bytes.Equal(got, p) {
			t.Fatalf("load report did not round-trip: %x vs %x", got, p)
		}
	})
}

func FuzzDecodeSummaryRequest(f *testing.F) {
	f.Add(EncodeSummaryRequest(0))
	f.Add(EncodeSummaryRequest(1 << 40))
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, p []byte) {
		epoch, err := DecodeSummaryRequest(p)
		if err != nil {
			return
		}
		if got := EncodeSummaryRequest(epoch); !bytes.Equal(got, p) {
			t.Fatalf("summary request did not round-trip: %x vs %x", got, p)
		}
	})
}

func FuzzDecodeSummaryDecline(f *testing.F) {
	f.Add(EncodeSummaryDecline(0, 0, 0))
	f.Add(EncodeSummaryDecline(7, 1<<33, 599))
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, epoch, pending, err := DecodeSummaryDecline(p)
		if err != nil {
			return
		}
		if id < 0 || pending < 0 {
			t.Fatalf("negative fields from uint32s: id=%d pending=%d", id, pending)
		}
		if got := EncodeSummaryDecline(id, epoch, pending); !bytes.Equal(got, p) {
			t.Fatalf("summary decline did not round-trip: %x vs %x", got, p)
		}
	})
}

func FuzzDecodeRawRequest(f *testing.F) {
	f.Add(EncodeRawRequest(0, 0))
	f.Add(EncodeRawRequest(3, 199))
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		epoch, centroid, err := DecodeRawRequest(p)
		if err != nil {
			return
		}
		if centroid < 0 {
			t.Fatalf("negative centroid %d from a uint32 field", centroid)
		}
		if got := EncodeRawRequest(epoch, centroid); !bytes.Equal(got, p) {
			t.Fatalf("raw request did not round-trip: %x vs %x", got, p)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(EncodeHello(0))
	f.Add(EncodeHello(1 << 20))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, err := DecodeHello(p)
		if err != nil {
			return
		}
		if id < 0 {
			t.Fatalf("negative monitor ID %d from a uint32 field", id)
		}
		if got := EncodeHello(id); !bytes.Equal(got, p) {
			t.Fatalf("hello did not round-trip: %x vs %x", got, p)
		}
	})
}

// TestReadFrameBoundedAllocation pins the hardening FuzzReadFrame
// relies on: a header claiming MaxFrameSize with a short body must
// fail with an unexpected-EOF class error after allocating at most one
// chunk, not reserve the full claimed size.
func TestReadFrameBoundedAllocation(t *testing.T) {
	hdr := []byte{0x03, 0xff, 0xff, 0xff, byte(MsgSummary)} // ~64 MB claim
	input := append(hdr, make([]byte, 100)...)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadFrame(bytes.NewReader(input)); err == nil {
		t.Fatal("truncated 64 MB claim must not decode")
	}
	runtime.ReadMemStats(&after)
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 4*frameAllocChunk {
		t.Fatalf("short frame with a 64 MB claim allocated %d bytes, want <= %d",
			delta, 4*frameAllocChunk)
	}
}
