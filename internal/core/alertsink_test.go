package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/inference"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/wire"
)

// TestAlertWriterDeliversThroughFaults runs the controller→sink alert
// path end to end: an AlertSink behind a TCP listener, an AlertWriter
// whose first connection resets mid-send, and the delivery counter.
func TestAlertWriterDeliversThroughFaults(t *testing.T) {
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var mu sync.Mutex
	var got []string
	sink := &AlertSink{Handler: func(line string) {
		mu.Lock()
		got = append(got, line)
		mu.Unlock()
	}}
	go sink.ListenAndServe(ln)

	addr := ln.Addr().String()
	// Connection 0 resets on its first write; the retry redials and
	// connection 1 is clean.
	dial := faultnet.Dialer(
		func() (net.Conn, error) { return net.Dial("tcp", addr) },
		func(conn int) *faultnet.Plan {
			if conn == 0 {
				return faultnet.NewPlan(
					faultnet.Fault{Op: faultnet.OpWrite, Index: 0, Kind: faultnet.KindReset})
			}
			return nil
		},
	)
	w := NewAlertWriter(dial, RetryConfig{
		Timeout: 2 * time.Second, Attempts: 3, Sleep: func(time.Duration) {},
	})
	defer w.Close()

	before := cAlertsDelivered.Value()
	alerts := []*inference.Alert{
		{Attack: rules.AttackSYNFlood, SID: 10001, Epoch: 3, MatchedPackets: 1200, Msg: "SYN flood"},
		{Attack: rules.AttackPortScan, SID: 10003, Epoch: 4, MatchedPackets: 88, Msg: "Port scan", Distributed: true},
	}
	for _, a := range alerts {
		if err := w.Send(a); err != nil {
			t.Fatalf("send: %v", err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == len(alerts) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink received %d of %d alerts", n, len(alerts))
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, a := range alerts {
		if got[i] != a.String() {
			t.Fatalf("alert %d arrived as %q, want %q", i, got[i], a.String())
		}
	}
	if d := cAlertsDelivered.Value() - before; d != int64(len(alerts)) {
		t.Fatalf("jaal_alerts_delivered_total advanced by %d, want %d", d, len(alerts))
	}
}

// TestAlertSinkRejectsNonAlertFrames pins the fail-closed behaviour: a
// sink fed any frame type other than MsgAlert drops the session with a
// protocol error instead of ignoring it.
func TestAlertSinkRejectsNonAlertFrames(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	sink := &AlertSink{}
	errCh := make(chan error, 1)
	go func() { errCh <- sink.Serve(server) }()
	if err := wire.WriteFrame(client, wire.MsgHello, wire.EncodeHello(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("sink accepted a non-alert frame")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sink did not reject the frame")
	}
}

// TestAlertSinkReadsBurst writes 1000 alert frames in one Write and
// wants all of them handed on in order, then a clean return at EOF.
func TestAlertSinkReadsBurst(t *testing.T) {
	var burst bytes.Buffer
	var want []string
	for i := range 1000 {
		line := fmt.Sprintf("alert %d %s", i, strings.Repeat("x", i%50))
		want = append(want, line)
		if err := wire.WriteFrame(&burst, wire.MsgAlert, []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	client, server := net.Pipe()
	var got []string
	sink := &AlertSink{Handler: func(line string) { got = append(got, line) }}
	errCh := make(chan error, 1)
	go func() { errCh <- sink.Serve(server) }()
	if _, err := client.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if err := <-errCh; err != nil {
		t.Fatalf("Serve returned %v at EOF, want nil", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("sink handed on %d alerts, want the %d written, in order", len(got), len(want))
	}
}

// TestAlertSinkShortFrames wants a connection that ends inside a frame
// — in its header or its payload — to be an unexpected-EOF error after
// the whole frames before it were handed on.
func TestAlertSinkShortFrames(t *testing.T) {
	var whole bytes.Buffer
	if err := wire.WriteFrame(&whole, wire.MsgAlert, []byte("first")); err != nil {
		t.Fatal(err)
	}
	var long bytes.Buffer
	if err := wire.WriteFrame(&long, wire.MsgAlert, []byte("a payload cut short")); err != nil {
		t.Fatal(err)
	}
	for name, cut := range map[string][]byte{
		"header":  long.Bytes()[:3],
		"payload": long.Bytes()[:long.Len()-4],
	} {
		client, server := net.Pipe()
		var got []string
		sink := &AlertSink{Handler: func(line string) { got = append(got, line) }}
		errCh := make(chan error, 1)
		go func() { errCh <- sink.Serve(server) }()
		if _, err := client.Write(append(slices.Clone(whole.Bytes()), cut...)); err != nil {
			t.Fatal(err)
		}
		client.Close()
		if err := <-errCh; !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("frame cut in its %s: Serve returned %v, want an unexpected EOF", name, err)
		}
		if !slices.Equal(got, []string{"first"}) {
			t.Errorf("frame cut in its %s: handed on %q, want the whole frame before it", name, got)
		}
	}
}
