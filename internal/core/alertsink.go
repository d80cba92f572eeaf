package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/inference"
	"repro/internal/wire"
)

// AlertSink is the operator-side consumer of MsgAlert frames: the
// endpoint a controller ships its alert stream to. Each consumed
// alert line is handed to Handler and counted
// (jaal_alerts_delivered_total), closing the loop the wire protocol
// left open — MsgAlert existed on the wire with nothing consuming it.
type AlertSink struct {
	// Handler receives each alert line; nil means count-only.
	Handler func(line string)
}

// Serve consumes alert frames from one controller connection until
// EOF. Any frame other than MsgAlert is a protocol error. It reads
// through a buffer, so a burst of alerts costs a read call per buffer,
// not two per frame.
func (s *AlertSink) Serve(conn net.Conn) error {
	r := bufio.NewReader(conn)
	for {
		msg, err := wire.ReadFrame(r)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("core: alert sink: %w", err)
		}
		switch msg.Type {
		case wire.MsgAlert:
			cAlertsDelivered.Inc()
			if s.Handler != nil {
				s.Handler(string(msg.Payload))
			}
		default:
			return fmt.Errorf("core: alert sink got unexpected %v", msg.Type)
		}
	}
}

// ListenAndServe accepts controller connections on ln and serves each
// until its EOF, one goroutine per connection. It returns when the
// listener closes.
func (s *AlertSink) ListenAndServe(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func(c net.Conn) {
			defer c.Close()
			s.Serve(c)
		}(conn)
	}
}

// AlertWriter ships a controller's alerts to an AlertSink through the
// same retrying connection as RemoteMonitor, without a handshake: a
// failed send closes the connection, backs off, redials and retries, so
// a flapping operator endpoint costs retries, not alerts — up to the
// attempt budget.
type AlertWriter struct {
	c wireClient
}

// NewAlertWriter builds a writer over dial; the connection is
// established lazily on the first Send.
func NewAlertWriter(dial DialFunc, rc RetryConfig) *AlertWriter {
	return &AlertWriter{c: wireClient{dial: dial, retry: rc, jitter: rc.jitterSource(jitterSaltAlert)}}
}

// Send ships one alert as a MsgAlert frame carrying its log line.
func (w *AlertWriter) Send(a *inference.Alert) error {
	payload := []byte(a.String())
	return w.c.exchange(func(conn net.Conn) error {
		return wire.WriteFrame(conn, wire.MsgAlert, payload)
	})
}

// Close closes the writer's connection, if any.
func (w *AlertWriter) Close() error { return w.c.close() }
