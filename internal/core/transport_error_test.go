package core

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sketch"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

// startServer runs a MonitorServer over one side of a pipe and returns
// the client side, the monitor and a channel carrying Serve's result.
func startServer(t *testing.T, id int) (net.Conn, *Monitor, chan error) {
	t.Helper()
	m, err := NewMonitorSketch(id, smallSummaryConfig(), sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- (&MonitorServer{Monitor: m}).Serve(server) }()
	t.Cleanup(func() { client.Close() })
	return client, m, done
}

// oneShot is a DialFunc that hands out conn on its first call and fails
// every later one, so a handle dialled through it with the zero
// RetryConfig never reconnects: its first failed exchange surfaces.
// Calls are serialized by the handle's lock.
func oneShot(conn net.Conn) DialFunc {
	return func() (net.Conn, error) {
		if conn == nil {
			return nil, errors.New("one-shot dial already used")
		}
		c := conn
		conn = nil
		return c, nil
	}
}

// drainHello consumes the server's opening hello frame.
func drainHello(t *testing.T, conn net.Conn) {
	t.Helper()
	msg, err := wire.ReadFrame(conn)
	if err != nil || msg.Type != wire.MsgHello {
		t.Fatalf("hello: %v %v", msg, err)
	}
}

// TestServerTruncatedFrameMidStream cuts the connection halfway through
// a frame: the server must surface a read error, not hang or treat the
// fragment as a request.
func TestServerTruncatedFrameMidStream(t *testing.T) {
	client, _, done := startServer(t, 40)
	drainHello(t, client)

	// A frame header promising an 8-byte summary-request payload,
	// followed by only 3 payload bytes and EOF.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[0:4], 8)
	hdr[4] = byte(wire.MsgSummaryRequest)
	if _, err := client.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	client.Close()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("server accepted a truncated frame as clean shutdown")
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.ErrClosedPipe) {
			t.Logf("got error %v (any read error is acceptable)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on a truncated frame")
	}
}

// TestServerUnknownMessageType sends frames whose type the server does
// not serve — an undefined byte, and 10, a retired request type a stale
// peer may still send with its old 12-byte payload. Each session must
// end with an explicit error naming the type, counted as a serve error.
func TestServerUnknownMessageType(t *testing.T) {
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()

	for _, ty := range []wire.MsgType{99, 10} {
		client, _, done := startServer(t, 41)
		drainHello(t, client)

		before := cServeErrors.Value()
		if err := wire.WriteFrame(client, ty, make([]byte, 12)); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if want := "unexpected " + ty.String(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("type %d: error = %v, want one naming %q", byte(ty), err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("server hung on message type %d", byte(ty))
		}
		if d := cServeErrors.Value() - before; d != 1 {
			t.Fatalf("type %d: jaal_transport_serve_errors_total moved by %d, want 1", byte(ty), d)
		}
	}
}

// testRefs is a three-centroid raw request.
var testRefs = []wire.RawRef{{Epoch: 1, Centroid: 2}, {Epoch: 1, Centroid: 7}, {Epoch: 0, Centroid: 3}}

// rawBatchFails runs one RawBatch over a fake monitor that answers its
// hello with id and then plays serve, and checks the batch fails — with
// an error, no groups, and every ref counted in
// jaal_feedback_fetch_failures_total — within five seconds.
func rawBatchFails(t *testing.T, id int, serve func(server net.Conn)) {
	t.Helper()
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()
	client, server := net.Pipe()
	go func() {
		wire.WriteFrame(server, wire.MsgHello, wire.EncodeHello(id))
		serve(server)
	}()
	rm, err := DialMonitorRetry(oneShot(client), RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	before := cFetchFailures.Value()
	type result struct {
		groups [][]packet.Header
		err    error
	}
	doneC := make(chan result, 1)
	go func() {
		groups, err := rm.RawBatch(testRefs)
		doneC <- result{groups, err}
	}()
	select {
	case got := <-doneC:
		if got.err == nil || got.groups != nil {
			t.Fatalf("failed exchange returned %d groups and error %v, want none and an error", len(got.groups), got.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RawBatch hung on a failed exchange")
	}
	if d := cFetchFailures.Value() - before; d != int64(len(testRefs)) {
		t.Fatalf("jaal_feedback_fetch_failures_total moved by %d, want %d", d, len(testRefs))
	}
}

// TestRemoteRawBatchConnClosed closes the connection between a raw-batch
// request and its response: RawBatch must fail, never hang.
func TestRemoteRawBatchConnClosed(t *testing.T) {
	rawBatchFails(t, 42, func(server net.Conn) {
		// Swallow the raw request, then die mid-exchange.
		wire.ReadFrame(server)
		server.Close()
	})
}

// TestRemoteRawBatchTruncatedBatch answers a raw request with a frame
// that promises more payload than it delivers before closing.
func TestRemoteRawBatchTruncatedBatch(t *testing.T) {
	rawBatchFails(t, 7, func(server net.Conn) {
		wire.ReadFrame(server) // the raw request
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[0:4], 1000) // promise 1000 bytes
		hdr[4] = byte(wire.MsgRawBatch)
		server.Write(hdr[:])
		server.Write(make([]byte, 10)) // deliver 10
		server.Close()
	})
}

// TestRemoteRawBatchCountsMismatch answers a three-ref request with a
// whole frame whose counts do not add up to its body: the decoder
// refuses it and the batch fails like a lost connection.
func TestRemoteRawBatchCountsMismatch(t *testing.T) {
	rawBatchFails(t, 8, func(server net.Conn) {
		wire.ReadFrame(server) // the raw request
		body := packet.EncodeBatches([][]packet.Header{{{SrcIP: 1}}, nil, nil})
		body[3] = 2 // first count claims two headers, the body holds one
		wire.WriteFrame(server, wire.MsgRawBatch, body)
		wire.ReadFrame(server) // blocks until the client drops the connection
	})
}

// TestServerRefusesOversizedRawBatch sends the request the list form
// makes possible: one retained centroid asked for so many times that the
// answer would not fit a frame. The server must end the session with an
// error, counted as a serve error, instead of encoding the answer.
func TestServerRefusesOversizedRawBatch(t *testing.T) {
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()

	client, m, done := startServer(t, 43)
	drainHello(t, client)
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(3))
	if err := m.IngestBatch(bg.Batch(smallSummaryConfig().BatchSize)); err != nil {
		t.Fatal(err)
	}
	ss, _, err := m.CollectSummaries()
	if err != nil || len(ss) == 0 {
		t.Fatalf("collect: %d summaries, %v", len(ss), err)
	}
	ref := wire.RawRef{Epoch: ss[0].Epoch}
	for c, n := range ss[0].Counts {
		if n > ss[0].Counts[ref.Centroid] {
			ref.Centroid = c
		}
	}
	perRef := packet.BatchesSize(1, ss[0].Counts[ref.Centroid])
	refs := make([]wire.RawRef, wire.MaxFrameSize/perRef+1)
	for i := range refs {
		refs[i] = ref
	}
	req := wire.EncodeRawRequest(refs)
	if len(req) > wire.MaxFrameSize {
		t.Fatalf("request of %d bytes does not fit a frame; pick a larger centroid", len(req))
	}

	before := cServeErrors.Value()
	go wire.WriteFrame(client, wire.MsgRawRequest, req)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("oversized raw batch: serve returned %v, want a size error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server hung on an oversized raw request")
	}
	if d := cServeErrors.Value() - before; d != 1 {
		t.Fatalf("jaal_transport_serve_errors_total moved by %d, want 1", d)
	}
}

// pollHandRolled polls a hand-rolled monitor that says hello as helloID
// and answers the summary request with one frame of type ty carrying
// payload, then a decline. It returns the poll's outcome and how far
// jaal_transport_decode_rejects_total moved.
func pollHandRolled(t *testing.T, helloID int, ty wire.MsgType, payload []byte) (PollResult, int64) {
	t.Helper()
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		wire.WriteFrame(server, wire.MsgHello, wire.EncodeHello(helloID))
		wire.ReadFrame(server) // the summary request
		wire.WriteFrame(server, ty, payload)
		wire.WriteFrame(server, wire.MsgSummaryDecline, wire.EncodeSummaryDecline(helloID, 0, 0))
	}()
	rm, err := DialMonitorRetry(oneShot(client), RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	before := cDecodeRejects.Value()
	res := (&Poller{Remotes: []*RemoteMonitor{rm}}).Poll(0)
	return res, cDecodeRejects.Value() - before
}

// TestRemotePollRejectsSummaryNamingAnotherMonitor ships a well-formed
// summary whose MonitorID is not the sender's hello ID. The feedback
// loop would fetch raw packets by that ID, so the frame is refused like
// any other rejected frame: counted as a decode reject, the poll fails
// and the epoch is degraded. The same frame from the monitor it names
// is accepted.
func TestRemotePollRejectsSummaryNamingAnotherMonitor(t *testing.T) {
	m, err := NewMonitorSketch(4, smallSummaryConfig(), sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(5))
	for i := 0; i < smallSummaryConfig().BatchSize; i++ {
		if err := m.Ingest(bg.Next()); err != nil {
			t.Fatal(err)
		}
	}
	ss, _, err := m.CollectSummaries()
	if err != nil || len(ss) == 0 {
		t.Fatalf("monitor 4 produced %d summaries: %v", len(ss), err)
	}
	payload, err := ss[0].Marshal()
	if err != nil {
		t.Fatal(err)
	}

	res, rejects := pollHandRolled(t, 4, wire.MsgSummary, payload)
	if res.Degraded || len(res.Summaries) != 1 || rejects != 0 {
		t.Fatalf("monitor 4 shipping its own summary: degraded %v, %d summaries, %d rejects; want accepted",
			res.Degraded, len(res.Summaries), rejects)
	}

	res, rejects = pollHandRolled(t, 3, wire.MsgSummary, payload)
	if !res.Degraded || len(res.Summaries) != 0 || len(res.Declines) != 1 || !res.Declines[0].Unreachable() {
		t.Fatalf("monitor 3 shipping monitor 4's summary: degraded %v, %d summaries, declines %+v; want a failed poll",
			res.Degraded, len(res.Summaries), res.Declines)
	}
	if rejects != 1 {
		t.Fatalf("jaal_transport_decode_rejects_total moved by %d, want 1", rejects)
	}
}

// TestRemotePollRejectsUnexpectedFrame answers the summary request with
// an alert frame before the decline. A poll that skipped the frame would
// succeed on the decline; it must fail instead, so the epoch is degraded
// and the monitor counts as unreachable.
func TestRemotePollRejectsUnexpectedFrame(t *testing.T) {
	res, _ := pollHandRolled(t, 5, wire.MsgAlert, nil)
	if !res.Degraded || len(res.Summaries) != 0 || len(res.Declines) != 1 || !res.Declines[0].Unreachable() {
		t.Fatalf("alert frame in a summary reply: degraded %v, %d summaries, declines %+v; want a failed poll",
			res.Degraded, len(res.Summaries), res.Declines)
	}
}
