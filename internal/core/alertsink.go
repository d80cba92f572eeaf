package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

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

// alertPendingMax is how many bytes of frames Send queues ahead of the
// writer goroutine before it blocks: backpressure from a slow or
// unreachable sink, several thousand alert lines deep.
const alertPendingMax = 1 << 20

// errAlertWriterClosed is what Send returns once Close has been called.
var errAlertWriterClosed = errors.New("core: alert writer closed")

// AlertWriter ships a controller's alerts to an AlertSink through the
// same retrying connection as RemoteMonitor, without a handshake.
//
// It writes behind its callers: Send appends the alert's MsgAlert frame
// to a pending buffer and returns, and one goroutine per writer takes
// everything pending each time it wakes and writes it with one Write, so
// a burst of alerts costs one syscall, not one per alert. Frames leave
// in Send order. A failed write closes the connection, backs off,
// redials and resends from the first frame the kernel had not wholly
// accepted, so a flapping operator endpoint costs retries, not alerts or
// duplicates — up to the attempt budget.
type AlertWriter struct {
	c wireClient

	mu sync.Mutex
	// ready wakes the writer goroutine (frames pending, or closing);
	// room wakes the Sends blocked at alertPendingMax.
	ready, room sync.Cond
	// pending holds the frames queued since the writer last took them.
	pending []byte
	// line is the last alert's log line, reused by the next Send.
	line []byte
	// unreported is the error of an exhausted batch that no Send has
	// returned yet; failed is the first such error, which Close returns.
	unreported, failed error
	closing            bool
	// done is closed when the writer goroutine ends.
	done chan struct{}
}

// NewAlertWriter builds a writer over dial and starts its writer
// goroutine, which Close ends; the connection is established lazily on
// the first write.
func NewAlertWriter(dial DialFunc, rc RetryConfig) *AlertWriter {
	w := &AlertWriter{
		c:    wireClient{dial: dial, retry: rc, jitter: rc.jitterSource(jitterSaltAlert)},
		done: make(chan struct{}),
	}
	w.ready.L, w.room.L = &w.mu, &w.mu
	go w.run()
	return w
}

// Send queues one alert as a MsgAlert frame carrying its log line and
// returns without waiting for the network. It blocks while
// alertPendingMax bytes are already queued. A non-nil error reports an
// earlier burst whose retries ran out, whose alerts are lost; a itself
// is queued all the same, and each such error is returned once. Send is
// safe for concurrent callers; after Close it queues nothing and fails.
func (w *AlertWriter) Send(a *inference.Alert) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.pending) >= alertPendingMax && !w.closing {
		w.room.Wait()
	}
	if w.closing {
		return errAlertWriterClosed
	}
	w.line = a.AppendText(w.line[:0])
	idle := len(w.pending) == 0
	var err error
	if w.pending, err = wire.AppendFrame(w.pending, wire.MsgAlert, w.line); err != nil {
		return err
	}
	if idle {
		w.ready.Signal()
	}
	err, w.unreported = w.unreported, nil
	return err
}

// run is the writer goroutine. It swaps the pending buffer for the one
// it wrote last, writes the frames it took through the retry loop, and
// repeats until Close has been called and nothing is pending.
func (w *AlertWriter) run() {
	defer close(w.done)
	var batch []byte
	w.mu.Lock()
	for {
		for len(w.pending) == 0 && !w.closing {
			w.ready.Wait()
		}
		if len(w.pending) == 0 {
			w.mu.Unlock()
			return
		}
		batch, w.pending = w.pending, batch[:0]
		w.room.Broadcast()
		w.mu.Unlock()
		err := w.write(batch)
		w.mu.Lock()
		if err != nil {
			w.unreported = err
			if w.failed == nil {
				w.failed = err
			}
		}
	}
}

// write sends batch through the retry loop; each attempt resumes at the
// first frame the attempt before it did not get wholly accepted.
func (w *AlertWriter) write(batch []byte) error {
	return w.c.exchange(func(conn net.Conn) error {
		n, err := wire.WriteFrames(conn, batch)
		batch = batch[n:]
		return err
	})
}

// Close stops queueing, waits until every queued frame has been written
// or has run out of retries, ends the writer goroutine and closes the
// connection, so the sink's Serve reaches EOF. It returns the first
// error a batch ran out of retries on, else the connection's close
// error. Closing twice is safe.
func (w *AlertWriter) Close() error {
	w.mu.Lock()
	w.closing = true
	w.ready.Signal()
	w.room.Broadcast()
	w.mu.Unlock()
	<-w.done
	err := w.c.close()
	if w.failed != nil {
		return w.failed
	}
	return err
}
