package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

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
// EOF. Any frame other than MsgAlert is a protocol error.
func (s *AlertSink) Serve(conn net.Conn) error {
	for {
		msg, err := wire.ReadFrame(conn)
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

// AlertWriter ships a controller's alerts to an AlertSink with the
// transport's retry policy: a failed send closes the connection, backs
// off, redials and retries, so a flapping operator endpoint costs
// retries, not alerts — up to the attempt budget.
type AlertWriter struct {
	dial  DialFunc
	retry RetryConfig

	mu   sync.Mutex
	conn net.Conn
	// jitter is the writer's own backoff-jitter source (nil when jitter
	// is off), drawn from only under mu.
	jitter *rand.Rand
}

// NewAlertWriter builds a writer over dial; the connection is
// established lazily on the first Send.
func NewAlertWriter(dial DialFunc, rc RetryConfig) *AlertWriter {
	return &AlertWriter{dial: dial, retry: rc, jitter: rc.jitterSource(jitterSaltAlert)}
}

// Send ships one alert as a MsgAlert frame carrying its log line.
func (w *AlertWriter) Send(a *inference.Alert) error {
	payload := []byte(a.String())
	w.mu.Lock()
	defer w.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < w.retry.attempts(); attempt++ {
		if attempt > 0 {
			// w.mu stays held across the backoff and the write by design:
			// one frame at a time per sink connection, and alerts are rare.
			w.retry.sleep(w.retry.backoff(attempt-1, w.jitter))
		}
		if w.conn == nil {
			conn, err := w.dial()
			if err != nil {
				lastErr = err
				continue
			}
			w.conn = conn
		}
		if w.retry.Timeout > 0 {
			w.conn.SetWriteDeadline(time.Now().Add(w.retry.Timeout)) //jaalvet:ignore detrand — I/O deadline arming; the alert payload is stamped by the controller's Clock, not here
		}
		if err := wire.WriteFrame(w.conn, wire.MsgAlert, payload); err != nil {
			lastErr = err
			w.conn.Close()
			w.conn = nil
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("core: alert sink unreachable")
	}
	return lastErr
}

// Close closes the writer's connection, if any.
func (w *AlertWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.conn == nil {
		return nil
	}
	err := w.conn.Close()
	w.conn = nil
	return err
}
