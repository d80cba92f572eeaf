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
	"repro/internal/sketch"
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

// TestRemoteRawPacketsConnClosed closes the connection between a
// raw-batch request and its response: RawPackets must return nil (the
// feedback loop's safe non-confirming default), never error or hang.
func TestRemoteRawPacketsConnClosed(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		// Impersonate the monitor server far enough to complete the
		// hello, swallow the raw request, then die mid-exchange.
		wire.WriteFrame(server, wire.MsgHello, wire.EncodeHello(42))
		wire.ReadFrame(server)
		server.Close()
	}()
	rm, err := DialMonitorRetry(oneShot(client), RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	doneC := make(chan []int, 1)
	go func() {
		hs := rm.RawPackets(0, 0)
		doneC <- []int{len(hs)}
	}()
	select {
	case got := <-doneC:
		if got[0] != 0 {
			t.Fatalf("closed connection returned %d raw packets, want 0", got[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RawPackets hung on a closed connection")
	}
}

// TestRemoteRawPacketsTruncatedBatch answers a raw request with a frame
// that promises more payload than it delivers before closing: the
// client must treat it as missing data.
func TestRemoteRawPacketsTruncatedBatch(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		wire.WriteFrame(server, wire.MsgHello, wire.EncodeHello(7))
		wire.ReadFrame(server) // the raw request
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[0:4], 1000) // promise 1000 bytes
		hdr[4] = byte(wire.MsgRawBatch)
		server.Write(hdr[:])
		server.Write(make([]byte, 10)) // deliver 10
		server.Close()
	}()
	rm, err := DialMonitorRetry(oneShot(client), RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	if hs := rm.RawPackets(1, 2); hs != nil {
		t.Fatalf("truncated raw batch yielded %d headers, want nil", len(hs))
	}
}
