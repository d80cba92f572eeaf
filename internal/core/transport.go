package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/wire"
)

// MonitorServer exposes a Monitor over the wire protocol: it answers the
// controller's load queries, summary polls and raw-batch requests on a
// single long-lived connection (§7). A controller that loses the
// connection reconnects and re-handshakes; the server treats every
// accepted connection as a fresh session.
type MonitorServer struct {
	Monitor *Monitor
	// EpochLog, when non-nil, receives one structured record per
	// summary poll: the monitor-side epoch log of a wire deployment.
	EpochLog *obs.EpochLogger
	// WriteTimeout bounds each response write so a stalled controller
	// cannot wedge the serving goroutine forever. Zero disables the
	// deadline.
	WriteTimeout time.Duration
}

// Serve handles one controller connection until EOF or error. It sends
// the hello, then answers requests synchronously. Errors other than a
// clean EOF are counted (jaal_transport_serve_errors_total) and
// wrapped with the message type being served when one is known, so an
// operator log names the failing request rather than a bare I/O error.
func (s *MonitorServer) Serve(conn net.Conn) error {
	s.armWriteDeadline(conn)
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.EncodeHello(s.Monitor.ID())); err != nil {
		cServeErrors.Inc()
		return fmt.Errorf("core: monitor %d: hello: %w", s.Monitor.ID(), err)
	}
	for {
		msg, err := wire.ReadFrame(conn)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			cServeErrors.Inc()
			return fmt.Errorf("core: monitor %d: read frame: %w", s.Monitor.ID(), err)
		}
		s.armWriteDeadline(conn)
		if err := s.handle(conn, msg); err != nil {
			cServeErrors.Inc()
			return fmt.Errorf("core: monitor %d: serving %s: %w", s.Monitor.ID(), msg.Type, err)
		}
	}
}

// armWriteDeadline pushes the write deadline forward before a response
// burst; it is a no-op without a configured timeout.
func (s *MonitorServer) armWriteDeadline(conn net.Conn) {
	if s.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout)) //jaalvet:ignore detrand — I/O deadline arming; alerts and summaries never carry this timestamp
	}
}

func (s *MonitorServer) handle(conn net.Conn, msg *wire.Message) error {
	switch msg.Type {
	case wire.MsgLoadQuery:
		load := float64(s.Monitor.LoadAndReset())
		return wire.WriteFrame(conn, wire.MsgLoadReport, wire.EncodeLoadReport(s.Monitor.ID(), load))

	case wire.MsgSummaryRequest:
		epoch, err := wire.DecodeSummaryRequest(msg.Payload)
		if err != nil {
			return err
		}
		// One span feeds the epoch log and, when tracing, the staged
		// collect stage that ships with this poll's trace context.
		csp := trace.StartMonitorSpanWhen(s.EpochLog != nil, nil,
			trace.StageCollect, s.Monitor.ID(), epoch)
		ss, pending, digest, err := s.Monitor.Poll(epoch)
		collectDur := csp.End()
		if err != nil {
			return err
		}
		if s.EpochLog != nil {
			s.EpochLog.Log("monitor", epoch,
				obs.KV{K: "id", V: s.Monitor.ID()},
				obs.KV{K: "summaries", V: len(ss)},
				obs.KV{K: "pending", V: pending},
				obs.KV{K: "collect_ms", V: collectDur})
		}
		if len(ss) == 0 {
			// Nothing to ship: the monitor's epoch stays open (see
			// Monitor.Poll).
			return wire.WriteFrame(conn, wire.MsgSummaryDecline,
				wire.EncodeSummaryDecline(s.Monitor.ID(), epoch, pending))
		}
		// Marshal everything first (timed as the encode stage), then
		// drain the staged spans into a trace-context block appended to
		// the first summary payload — so the context includes the encode
		// span itself, and tracing-off frames are byte-identical to the
		// pre-trace wire format.
		esp := trace.StartMonitorSpan(nil, trace.StageEncode, s.Monitor.ID(), epoch)
		payloads := make([][]byte, len(ss))
		for i, sum := range ss {
			if payloads[i], err = sum.Marshal(); err != nil {
				return err
			}
		}
		esp.End()
		// Trailers ride the first summary payload. The sketch digest goes
		// first — its block carries an explicit length so a decoder can
		// skip it — then the trace context, which claims everything to the
		// end of the payload. Both are absent when their feature is off,
		// keeping the frame byte-identical to the plain wire format.
		if digest != nil {
			payloads[0] = digest.AppendWire(payloads[0])
		}
		if ctx := trace.TakeContext(s.Monitor.ID()); ctx != nil {
			payloads[0] = ctx.AppendWire(payloads[0])
		}
		// Ship every queued summary, then an empty decline as the
		// end-of-poll marker.
		for _, data := range payloads {
			if err := wire.WriteFrame(conn, wire.MsgSummary, data); err != nil {
				return err
			}
		}
		return wire.WriteFrame(conn, wire.MsgSummaryDecline,
			wire.EncodeSummaryDecline(s.Monitor.ID(), epoch, pending))

	case wire.MsgRawRequest:
		epoch, centroid, err := wire.DecodeRawRequest(msg.Payload)
		if err != nil {
			return err
		}
		hs := s.Monitor.RawPackets(epoch, centroid)
		return wire.WriteFrame(conn, wire.MsgRawBatch, packet.EncodeBatch(hs))

	default:
		return fmt.Errorf("core: monitor got unexpected %v", msg.Type)
	}
}

// DialFunc produces one fresh connection to a monitor (or alert sink).
// The transport calls it for the initial connect and for every
// reconnect after a failed exchange; tests wrap the returned conn in a
// faultnet fault plan.
type DialFunc func() (net.Conn, error)

// RetryConfig tunes the fault-tolerance of a wire client: per-exchange
// deadlines, how often a failed exchange is retried across reconnects,
// and the capped exponential backoff (with seeded jitter) between
// attempts. The zero value means one attempt, no deadline, no backoff
// — the pre-fault-tolerance behaviour.
type RetryConfig struct {
	// Timeout bounds one full request–response exchange (every
	// ReadFrame/WriteFrame of it), and separately each connection's
	// hello. Zero disables deadlines.
	Timeout time.Duration
	// Attempts is the total tries per exchange, reconnects included.
	// Values below 1 mean 1.
	Attempts int
	// BackoffBase is the sleep before the first retry; attempt n waits
	// min(BackoffBase·2ⁿ, BackoffMax). Zero disables backoff sleeps.
	BackoffBase time.Duration
	// BackoffMax caps the exponential growth. Zero means no cap; the
	// doubling then saturates instead of wrapping.
	BackoffMax time.Duration
	// JitterSeed, when non-zero, adds a uniformly drawn 0–50 % to each
	// backoff. It is a seed, not a source, because clients retry in
	// parallel (Poller.Poll, the feedback loop's raw fetches): each
	// RemoteMonitor and AlertWriter seeds a source of its own from it and
	// its identity at construction, so none is shared, and same-seed
	// chaos runs replay the same schedule monitor by monitor. The
	// transport never touches the global RNG.
	JitterSeed int64
	// Sleep implements the backoff wait; nil selects time.Sleep.
	// Tests inject a recorder to assert the schedule without paying it.
	Sleep func(time.Duration)
}

// attempts returns the effective attempt budget.
func (rc RetryConfig) attempts() int {
	if rc.Attempts < 1 {
		return 1
	}
	return rc.Attempts
}

// Salts that keep the jitter sources of clients without a monitor id
// apart from those of monitors, whose salt is their (non-negative) id.
const (
	jitterSaltDial  = -1 // DialMonitorRetry's connect loop, before the hello names the monitor
	jitterSaltAlert = -2 // AlertWriter
)

// jitterSource returns a fresh source for one client, or nil when jitter
// is off.
func (rc RetryConfig) jitterSource(salt int64) *rand.Rand {
	if rc.JitterSeed == 0 {
		return nil
	}
	return rand.New(rand.NewSource(rc.JitterSeed + salt))
}

// maxBackoff is where a backoff without BackoffMax stops doubling: half
// the largest Duration, so neither the doubling nor the 50 % jitter on
// top of it can wrap.
const maxBackoff = time.Duration(math.MaxInt64 / 2)

// backoff returns the wait before retry n (0-based), plus jitter drawn
// from the calling client's own source when it has one. The doubling
// saturates at BackoffMax, or at maxBackoff when there is no cap.
func (rc RetryConfig) backoff(n int, jitter *rand.Rand) time.Duration {
	if rc.BackoffBase <= 0 {
		return 0
	}
	ceil := rc.BackoffMax
	if ceil <= 0 || ceil > maxBackoff {
		ceil = maxBackoff
	}
	d := rc.BackoffBase
	for i := 0; i < n && d < ceil; i++ {
		d *= 2
	}
	d = min(d, ceil)
	if jitter != nil {
		d += time.Duration(jitter.Int63n(int64(d)/2 + 1))
	}
	return d
}

// sleep waits for d via the configured sleeper.
func (rc RetryConfig) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if rc.Sleep != nil {
		rc.Sleep(d)
		return
	}
	time.Sleep(d)
}

// wireClient is the one retrying connection under every controller-side
// wire client: RemoteMonitor's exchanges, DialMonitorRetry's first
// connect and AlertWriter.Send. It owns the dial, the optional MsgHello
// handshake, the per-exchange deadline, the attempt budget, the capped
// backoff drawn from this client's own jitter source, and close-and-redial
// on failure.
type wireClient struct {
	dial  DialFunc
	retry RetryConfig
	// hello makes every connection open with the server's MsgHello, which
	// must name monitor id; a negative id adopts whatever the first hello
	// names. id is written only then, before the handle is shared.
	hello bool
	id    int

	// mu serializes exchanges, one request–response at a time per
	// connection. It stays held across the backoff and the redial by
	// design: no other path needs it between exchanges.
	mu   sync.Mutex
	conn net.Conn
	// jitter is this client's own backoff-jitter source (nil when jitter
	// is off), drawn from only under mu.
	jitter *rand.Rand
	// everConnected distinguishes a lazy client's first connect from a
	// true reconnect, so jaal_transport_reconnects_total counts only
	// recoveries.
	everConnected bool
}

// exchange runs fn under the retry policy: connect if there is no
// connection, arm the deadline, run fn, and on failure close the
// connection, back off, redial and run fn again, up to the attempt
// budget. fn must be restartable from its first frame — the wire
// protocol is request-driven, so re-sending a request on a new
// connection is always safe at the protocol level.
func (c *wireClient) exchange(fn func(conn net.Conn) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	for attempt := 0; attempt < c.retry.attempts(); attempt++ {
		if attempt > 0 {
			c.retry.sleep(c.retry.backoff(attempt-1, c.jitter))
		}
		if c.conn == nil {
			if err = c.connect(); err != nil {
				continue
			}
		}
		c.arm(c.conn)
		if err = fn(c.conn); err == nil {
			if c.retry.Timeout > 0 {
				c.conn.SetDeadline(time.Time{})
			}
			return nil
		}
		dropConn(c.conn, err)
		c.conn = nil
	}
	return err
}

// connect dials and, for a monitor, reads its hello under the deadline
// and checks the identity it names.
func (c *wireClient) connect() error {
	conn, err := c.dial()
	if err != nil {
		return err
	}
	if c.hello {
		c.arm(conn)
		id, err := readHello(conn)
		switch {
		case err != nil:
		case c.id < 0:
			c.id = id
		case id != c.id:
			err = fmt.Errorf("core: reconnect reached monitor %d, want %d", id, c.id)
		}
		if err != nil {
			dropConn(conn, err)
			return err
		}
	}
	c.conn = conn
	if c.everConnected {
		cReconnects.Inc()
	}
	c.everConnected = true
	return nil
}

// arm starts one exchange's (or handshake's) deadline on conn; it is a
// no-op without a Timeout.
func (c *wireClient) arm(conn net.Conn) {
	if c.retry.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(c.retry.Timeout)) //jaalvet:ignore detrand — I/O deadline arming; no wire payload carries this timestamp
	}
}

// dropConn closes a connection an attempt failed on, counting the
// failure in jaal_transport_deadline_misses_total when an I/O deadline
// ended it.
func dropConn(conn net.Conn, err error) {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		cDeadlineMisses.Inc()
	}
	conn.Close()
}

// close closes the current connection, if any; a later exchange redials.
func (c *wireClient) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// readHello consumes the server's opening hello under a deadline
// already armed by the caller.
func readHello(conn net.Conn) (int, error) {
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		return 0, fmt.Errorf("core: hello: %w", err)
	}
	if msg.Type != wire.MsgHello {
		return 0, fmt.Errorf("core: expected hello, got %v", msg.Type)
	}
	return wire.DecodeHello(msg.Payload)
}

// RemoteMonitor is the controller-side handle to a monitor reached over
// the wire protocol. It implements RawSource so the feedback loop can
// fetch raw packets transparently.
//
// Every exchange runs under the handle's RetryConfig: a deadline per
// exchange, and on a failed one close the connection, back off, redial,
// re-handshake via MsgHello — rejecting a connection that reaches another
// monitor — and retry, up to the attempt budget. With the zero
// RetryConfig the first failed exchange surfaces its error.
type RemoteMonitor struct {
	c wireClient
}

// NewRemoteMonitor builds a handle for a monitor whose identity is
// known from deployment configuration, without requiring it to be
// reachable yet: the connection is established lazily by the first
// exchange, under the retry policy. This is how a controller starts
// against a monitor fleet where some members may be down — a dead
// monitor costs declines, not startup.
func NewRemoteMonitor(id int, dial DialFunc, rc RetryConfig) *RemoteMonitor {
	return &RemoteMonitor{c: wireClient{dial: dial, retry: rc, hello: true, id: id, jitter: rc.jitterSource(int64(id))}}
}

// DialMonitorRetry connects to a monitor through dial under the given
// retry policy and learns its identity from the hello: the initial
// connect gets the same attempt budget, deadline and backoff as every
// later exchange.
func DialMonitorRetry(dial DialFunc, rc RetryConfig) (*RemoteMonitor, error) {
	r := &RemoteMonitor{c: wireClient{dial: dial, retry: rc, hello: true, id: -1, jitter: rc.jitterSource(jitterSaltDial)}}
	if err := r.c.exchange(func(net.Conn) error { return nil }); err != nil {
		return nil, fmt.Errorf("core: dial monitor: %w", err)
	}
	r.c.jitter = rc.jitterSource(int64(r.c.id))
	return r, nil
}

// ID returns the remote monitor's identity.
func (r *RemoteMonitor) ID() int { return r.c.id }

// QueryLoad polls the monitor's load counter.
func (r *RemoteMonitor) QueryLoad() (float64, error) {
	var load float64
	err := r.c.exchange(func(conn net.Conn) error {
		if err := wire.WriteFrame(conn, wire.MsgLoadQuery, nil); err != nil {
			return err
		}
		msg, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		if msg.Type != wire.MsgLoadReport {
			return fmt.Errorf("core: expected load report, got %v", msg.Type)
		}
		_, load, err = wire.DecodeLoadReport(msg.Payload)
		return err
	})
	return load, err
}

// Poll asks the monitor for its queued summaries for the given epoch.
// A declining monitor yields an empty slice; pending is the monitor's
// reported count of buffered-but-unsummarized packets, from the
// decline frame that terminates every poll. digest is the monitor's
// sketch digest when its sketch pass is on (nil otherwise); it rides
// the first summary frame, so a fully declining poll carries none.
//
// The ship span covers the whole wire round trip (request, the monitor's
// collect+encode, transfer, decode) as seen from the controller; the
// per-stage breakdown inside it arrives with the monitor's trace context.
func (r *RemoteMonitor) Poll(epoch uint64) (ss []*summary.Summary, pending int, digest *sketch.Digest, err error) {
	defer trace.StartSpan(nil, trace.StageShip, r.ID(), epoch).End()
	err = r.c.exchange(func(conn net.Conn) error {
		ss, pending, digest = nil, 0, nil // restart cleanly on retry
		if err := wire.WriteFrame(conn, wire.MsgSummaryRequest, wire.EncodeSummaryRequest(epoch)); err != nil {
			return err
		}
		for {
			msg, err := wire.ReadFrame(conn)
			if err != nil {
				return err
			}
			switch msg.Type {
			case wire.MsgSummary:
				// Stamp receipt before decoding: the monitor's clock
				// offset is computed against this instant, so decode time
				// must not pollute it.
				recv := trace.NowNano()
				dsp := trace.StartSpan(nil, trace.StageDecode, r.ID(), epoch)
				s, dg, ctx, err := decodeSummaryPayload(msg.Payload)
				dsp.End()
				if err != nil {
					cDecodeRejects.Inc()
					return err
				}
				trace.AddRemoteContext(epoch, ctx, recv)
				if dg != nil {
					digest = dg
				}
				ss = append(ss, s)
			case wire.MsgSummaryDecline:
				_, _, pending, err = wire.DecodeSummaryDecline(msg.Payload)
				return err
			default:
				return fmt.Errorf("core: expected summary, got %v", msg.Type)
			}
		}
	})
	if err != nil {
		return nil, 0, nil, err
	}
	return ss, pending, digest, nil
}

// decodeSummaryPayload splits a MsgSummary payload into the encoded
// summary and its optional trailers: a sketch digest (length-delimited,
// first) and a trace-context block (last; see trace.Context). Plain
// payloads — from old peers or feature-off monitors — yield nils.
func decodeSummaryPayload(p []byte) (*summary.Summary, *sketch.Digest, *trace.Context, error) {
	n, err := summary.EncodedLen(p)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := summary.Unmarshal(p[:n])
	if err != nil {
		return nil, nil, nil, err
	}
	rest := p[n:]
	var dg *sketch.Digest
	if sketch.IsDigest(rest) {
		var consumed int
		dg, consumed, err = sketch.DecodeDigest(rest)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: summary sketch digest: %w", err)
		}
		rest = rest[consumed:]
	}
	if len(rest) == 0 {
		return s, dg, nil, nil
	}
	ctx, err := trace.DecodeContext(rest)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: summary trace context: %w", err)
	}
	return s, dg, ctx, nil
}

// RawPackets implements RawSource over the wire. Errors surface as an
// empty batch; the feedback loop treats missing raw data as
// non-confirming, the safe default.
func (r *RemoteMonitor) RawPackets(epoch uint64, centroid int) []packet.Header {
	var hs []packet.Header
	err := r.c.exchange(func(conn net.Conn) error {
		hs = nil
		if err := wire.WriteFrame(conn, wire.MsgRawRequest, wire.EncodeRawRequest(epoch, centroid)); err != nil {
			return err
		}
		msg, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		if msg.Type != wire.MsgRawBatch {
			return fmt.Errorf("core: expected raw batch, got %v", msg.Type)
		}
		hs, err = packet.DecodeBatch(msg.Payload)
		return err
	})
	if err != nil {
		return nil
	}
	return hs
}

// Close closes the underlying connection.
func (r *RemoteMonitor) Close() error { return r.c.close() }
