package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
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
	// Send only queues; Close flushes through the retry loop.
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
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

// orderedSink is an AlertSink behind a TCP listener that serves one
// connection at a time, in accept order, so the lines a connection
// abandoned by a retry delivered come before those of the redial.
type orderedSink struct {
	addr string
	mu   sync.Mutex
	got  []string
	// ends holds each finished connection's Serve result.
	ends []error
}

func startOrderedSink(t *testing.T) *orderedSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &orderedSink{addr: ln.Addr().String()}
	sink := &AlertSink{Handler: func(line string) {
		s.mu.Lock()
		s.got = append(s.got, line)
		s.mu.Unlock()
	}}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			err = sink.Serve(conn)
			conn.Close()
			s.mu.Lock()
			s.ends = append(s.ends, err)
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *orderedSink) dial() (net.Conn, error) { return net.Dial("tcp", s.addr) }

// wait blocks until conns connections have ended and returns the lines
// delivered and each connection's Serve result.
func (s *orderedSink) wait(t *testing.T, conns int) ([]string, []error) {
	t.Helper()
	waitUntil(t, "the sink to see its connections end", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.ends) >= conns
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.got), slices.Clone(s.ends)
}

// waitUntil polls cond for up to ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// testAlerts builds n distinct alerts and the lines a sink should see
// for them.
func testAlerts(n int, msg string) ([]*inference.Alert, []string) {
	alerts := make([]*inference.Alert, n)
	lines := make([]string, n)
	for i := range alerts {
		alerts[i] = &inference.Alert{Attack: rules.AttackSYNFlood, SID: 10001, Epoch: uint64(i), MatchedPackets: i, Msg: msg}
		lines[i] = alerts[i].String()
	}
	return alerts, lines
}

// frameLen is the wire size of a's MsgAlert frame.
func frameLen(t *testing.T, a *inference.Alert) int {
	t.Helper()
	f, err := wire.AppendFrame(nil, wire.MsgAlert, []byte(a.String()))
	if err != nil {
		t.Fatal(err)
	}
	return len(f)
}

// TestAlertWriterResumesAfterCutWrite cuts a multi-frame write in the
// middle of its third frame and wants the retry to resend from that
// frame: every alert arrives exactly once, in order.
func TestAlertWriterResumesAfterCutWrite(t *testing.T) {
	s := startOrderedSink(t)
	alerts, want := testAlerts(20, "SYN flood")
	// The first write carries alert 0 alone: the dial waits until the
	// writer has taken it, and the other 19 queue behind it. The second
	// write carries those 19 and is cut after two whole frames and part
	// of a third.
	keep := frameLen(t, alerts[1]) + frameLen(t, alerts[2]) + 7
	dialing, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	dial := faultnet.Dialer(
		func() (net.Conn, error) {
			once.Do(func() { close(dialing); <-gate })
			return s.dial()
		},
		func(conn int) *faultnet.Plan {
			if conn == 0 {
				return faultnet.NewPlan(faultnet.Fault{Op: faultnet.OpWrite, Index: 1, Kind: faultnet.KindTruncate, KeepBytes: keep})
			}
			return nil
		},
	)
	w := NewAlertWriter(dial, RetryConfig{Timeout: 5 * time.Second, Attempts: 2, Sleep: func(time.Duration) {}})
	if err := w.Send(alerts[0]); err != nil {
		t.Fatal(err)
	}
	<-dialing
	for _, a := range alerts[1:] {
		if err := w.Send(a); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, ends := s.wait(t, 2)
	if !slices.Equal(got, want) {
		t.Fatalf("sink saw %d alerts %q, want each of the %d once, in order", len(got), got, len(want))
	}
	if !errors.Is(ends[0], io.ErrUnexpectedEOF) || ends[1] != nil {
		t.Fatalf("connections ended with %v, want a frame cut short, then a clean EOF", ends)
	}
}

// TestAlertWriterReportsExhaustedBatch wants a batch that ran out of
// retries to surface its error on the next Send and on Close.
func TestAlertWriterReportsExhaustedBatch(t *testing.T) {
	down := errors.New("sink unreachable")
	w := NewAlertWriter(func() (net.Conn, error) { return nil, down },
		RetryConfig{Attempts: 2, Sleep: func(time.Duration) {}})
	alerts, _ := testAlerts(2, "SYN flood")
	if err := w.Send(alerts[0]); err != nil {
		t.Fatalf("first send: %v, want nil: nothing has failed yet", err)
	}
	waitUntil(t, "the batch to run out of retries", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.failed != nil
	})
	if err := w.Send(alerts[1]); !errors.Is(err, down) {
		t.Fatalf("send after an exhausted batch: %v, want %v", err, down)
	}
	if err := w.Close(); !errors.Is(err, down) {
		t.Fatalf("close after an exhausted batch: %v, want %v", err, down)
	}
	if err := w.Send(alerts[1]); !errors.Is(err, errAlertWriterClosed) {
		t.Fatalf("send after close: %v, want %v", err, errAlertWriterClosed)
	}
}

// TestAlertWriterCloseDrains calls Close while most of a burst is still
// queued behind a write that has not reached the network: Close must
// write all of it, then end the writer goroutine, before it returns.
func TestAlertWriterCloseDrains(t *testing.T) {
	s := startOrderedSink(t)
	dialing, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w := NewAlertWriter(func() (net.Conn, error) {
		once.Do(func() { close(dialing); <-gate })
		return s.dial()
	}, RetryConfig{Timeout: 5 * time.Second, Attempts: 1})
	alerts, want := testAlerts(2000, "port scan")
	if err := w.Send(alerts[0]); err != nil {
		t.Fatal(err)
	}
	<-dialing
	for _, a := range alerts[1:] {
		if err := w.Send(a); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	waitUntil(t, "Close to begin", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.closing
	})
	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case <-w.done:
	default:
		t.Fatal("Close returned before the writer goroutine ended")
	}
	got, ends := s.wait(t, 1)
	if !slices.Equal(got, want) || ends[0] != nil {
		t.Fatalf("sink saw %d of %d alerts (connection ended with %v)", len(got), len(want), ends[0])
	}
}

// TestAlertWriterGoroutinesEnd opens and closes 50 writers, half of
// them never sending, and wants the goroutine count back at its
// baseline.
func TestAlertWriterGoroutinesEnd(t *testing.T) {
	s := startOrderedSink(t)
	alerts, _ := testAlerts(1, "SYN flood")
	base := runtime.NumGoroutine()
	for i := range 50 {
		w := NewAlertWriter(s.dial, RetryConfig{Timeout: 5 * time.Second, Attempts: 1})
		if i%2 == 0 {
			if err := w.Send(alerts[0]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the writers' goroutines to end", func() bool { return runtime.NumGoroutine() <= base })
	if _, ends := s.wait(t, 25); len(ends) != 25 {
		t.Fatalf("%d connections, want one per writer that sent", len(ends))
	}
}

// TestAlertWriterBlocksAtBound stalls the sink and wants Send to block
// once alertPendingMax bytes are queued, then resume when the sink
// reads again, with nothing lost.
func TestAlertWriterBlocksAtBound(t *testing.T) {
	client, server := net.Pipe() // unbuffered: a write waits for its reader
	release := make(chan struct{})
	var got []string
	served := make(chan error, 1)
	go func() {
		<-release
		served <- (&AlertSink{Handler: func(line string) { got = append(got, line) }}).Serve(server)
	}()
	dialed := false
	w := NewAlertWriter(func() (net.Conn, error) {
		if dialed {
			return nil, errors.New("redialed")
		}
		dialed = true
		return client, nil
	}, RetryConfig{Attempts: 1})

	alerts, want := testAlerts(3*alertPendingMax/1000, strings.Repeat("m", 1000))
	size := frameLen(t, alerts[0])
	sent := make(chan error, 1)
	go func() {
		for _, a := range alerts {
			if err := w.Send(a); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()

	pending := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.pending)
	}
	waitUntil(t, "the pending buffer to fill", func() bool { return pending() >= alertPendingMax })
	select {
	case err := <-sent:
		t.Fatalf("every Send returned (%v) while the sink stalled", err)
	case <-time.After(100 * time.Millisecond):
	}
	if n := pending(); n >= alertPendingMax+size {
		t.Fatalf("%d bytes queued, want fewer than the bound plus one frame (%d)", n, alertPendingMax+size)
	}

	close(release)
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send stayed blocked after the sink resumed")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("sink saw %d of %d alerts", len(got), len(want))
	}
}

// TestAlertWriterConcurrentSenders has eight goroutines send at once
// and wants every frame intact, each exactly once, and each sender's
// alerts in its own order.
func TestAlertWriterConcurrentSenders(t *testing.T) {
	const senders, each = 8, 250
	s := startOrderedSink(t)
	w := NewAlertWriter(s.dial, RetryConfig{Timeout: 5 * time.Second, Attempts: 1})
	type origin struct{ sender, seq int }
	from := make(map[string]origin)
	var wg sync.WaitGroup
	for g := range senders {
		alerts := make([]*inference.Alert, each)
		for i := range alerts {
			alerts[i] = &inference.Alert{Attack: rules.AttackPortScan, SID: 20000 + g, Epoch: uint64(i),
				MatchedPackets: i, Msg: strings.Repeat("x", i%40)}
			from[alerts[i].String()] = origin{g, i}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range alerts {
				if err := w.Send(a); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, _ := s.wait(t, 1)
	if len(got) != senders*each {
		t.Fatalf("sink saw %d alerts, want %d", len(got), senders*each)
	}
	next := make([]int, senders)
	for _, line := range got {
		o, ok := from[line]
		if !ok {
			t.Fatalf("sink saw %q, which no sender sent", line)
		}
		if o.seq != next[o.sender] {
			t.Fatalf("sender %d's alert %d arrived when %d was next", o.sender, o.seq, next[o.sender])
		}
		next[o.sender]++
	}
}
