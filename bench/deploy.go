package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/trace"
)

// inputs is what the program under test receives: the traffic cycle
// generated from the seed and the workload's translated rules.
type inputs struct {
	sp spec
	tr *traffic
	rs *ruleset
	// translate is how long rule translation took.
	translate time.Duration
}

// prepare generates a workload's inputs for one seed.
func prepare(sp spec, seed int64) (*inputs, error) {
	tr, err := sp.generate(seed)
	if err != nil {
		return nil, fmt.Errorf("generate traffic: %w", err)
	}
	start := time.Now()
	rs, err := sp.buildRules()
	if err != nil {
		return nil, fmt.Errorf("translate rules: %w", err)
	}
	return &inputs{sp: sp, tr: tr, rs: rs, translate: time.Since(start)}, nil
}

// wireCount totals the bytes crossing the monitor connections, as seen
// from the controller's end: up is monitor→controller.
type wireCount struct {
	up, down atomic.Int64
}

// countConn counts the bytes of one controller→monitor connection.
type countConn struct {
	net.Conn
	n *wireCount
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.up.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.down.Add(int64(n))
	return n, err
}

// sinkTimeout is how long an epoch waits for the sink to have seen its
// alerts before it counts as failed.
const sinkTimeout = 5 * time.Second

// alertSink is the operator end of the alert stream: it counts the
// lines core.AlertSink hands it and hashes the first of them, so two
// runs of one commit can be compared.
type alertSink struct {
	seen atomic.Int64
	// wake has room for one token: the controller goroutine is the only
	// waiter, and a token left behind just makes it re-check the count.
	wake chan struct{}
	// hashing is switched by the controller goroutine between epochs.
	// It waits for every alert of an epoch before starting the next, so
	// the handler never sees the switch move under an epoch's alerts.
	hashing atomic.Bool
	all     hash.Hash
	library hash.Hash
}

func newAlertSink() *alertSink {
	return &alertSink{wake: make(chan struct{}, 1), all: sha256.New(), library: sha256.New()}
}

func (s *alertSink) handle(line string) {
	if s.hashing.Load() {
		s.all.Write([]byte(line + "\n"))
		if !strings.Contains(line, " ALERT "+genPrefix) {
			s.library.Write([]byte(line + "\n"))
		}
	}
	s.seen.Add(1)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// wait blocks until the sink has seen want alerts in total.
func (s *alertSink) wait(want int64) bool {
	if s.seen.Load() >= want {
		return true
	}
	timeout := time.NewTimer(sinkTimeout)
	defer timeout.Stop()
	for s.seen.Load() < want {
		select {
		case <-s.wake:
		case <-timeout.C:
			return s.seen.Load() >= want
		}
	}
	return true
}

// span is one timed interval of the traced run. Spans of one epoch
// share its number; parent is the index of the enclosing span, -1 for
// the epoch's root.
type span struct {
	Name   string `json:"name"`
	Epoch  int    `json:"epoch"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory until the run ends.
// A nil recorder records nothing, which is the untraced run.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// begin opens a span and returns its index, -1 on a nil recorder.
func (r *recorder) begin(name string, epoch, parent int, start time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Epoch: epoch, Parent: parent, Start: int64(start.Sub(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].End = int64(end.Sub(r.t0))
	r.mu.Unlock()
}

// add records a finished span.
func (r *recorder) add(name string, epoch, parent int, start, end time.Time) {
	r.end(r.begin(name, epoch, parent, start), end)
}

// timedSource is the traced run's RawSource: it times each raw fetch
// the controller makes as a child of the running process_epoch span.
type timedSource struct {
	src core.RawSource
	d   *deployment
}

func (t timedSource) RawPackets(epoch uint64, centroid int) []packet.Header {
	start := time.Now()
	hs := t.src.RawPackets(epoch, centroid)
	end := time.Now()
	t.d.rec.add("raw_fetch", int(t.d.curEpoch.Load()), int(t.d.curProcess.Load()), start, end)
	t.d.rawCalls.Add(1)
	t.d.rawNanos.Add(int64(end.Sub(start)))
	return hs
}

// deployment is the system under test, stood up inside this process
// the way cmd/jaal-monitor and cmd/jaal-controller stand it up across
// processes: each monitor behind a MonitorServer on its own loopback
// listener, the controller polling them through RemoteMonitor handles,
// and its alerts shipped to an AlertSink over a third connection.
type deployment struct {
	in       *inputs
	monitors [numMonitors]*core.Monitor
	remotes  []*core.RemoteMonitor
	poller   *core.Poller
	ctrl     *core.Controller
	alerts   *core.AlertWriter
	sink     *alertSink
	wire     wireCount
	// digestOffered and digestShed total the sketch digests of every
	// epoch since the deployment came up, warm-up included.
	digestOffered, digestShed uint64
	// indexBuild is how long core.NewController took; building the
	// question index is all it does beyond copying its config.
	indexBuild time.Duration

	// spacers keeps the heap objects allocated between the monitors
	// alive for as long as the monitors are.
	spacers [][][]*byte

	listeners []net.Listener
	serving   sync.WaitGroup
	serveMu   sync.Mutex
	serveErrs []error

	// rec is non-nil in the traced run. curEpoch and curProcess tell the
	// raw-fetch wrapper, which runs on pool goroutines, where its spans
	// belong.
	rec        *recorder
	curEpoch   atomic.Int64
	curProcess atomic.Int64
	rawCalls   atomic.Int64
	rawNanos   atomic.Int64
	// afterEpoch, when set, runs after every measured epoch, off the
	// clock.
	afterEpoch func() error
}

// heapSpacer allocates a run of small pointer-carrying objects in every
// small size class. Deployed monitors are separate processes; here two
// share one heap, and the allocator places the second monitor's structs
// right behind the first's, so that fields each feeder writes for every
// packet (a buffer's shed count, a sketch's total) can share a cache
// line across monitors. Whether they do depends on where the structs
// happen to start, and it costs the per-packet path up to a third of its
// speed: runs of one commit fell into two groups. Allocating a spacer
// before each monitor puts at least a cache line between the groups.
// The objects carry pointers because the allocator keeps pointer-free
// objects in spans of their own.
func heapSpacer() [][]*byte {
	var out [][]*byte
	for words := 1; words <= 128; words++ {
		for i := 0; i < 16; i++ {
			out = append(out, make([]*byte, words))
		}
	}
	return out
}

// listen starts serve for every connection accepted on a new loopback
// listener and returns its address. The goroutines end when close
// closes the listener and the peers close their connections.
func (d *deployment) listen(serve func(net.Conn) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.listeners = append(d.listeners, ln)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			d.serving.Add(1)
			go func() {
				defer d.serving.Done()
				defer conn.Close()
				if err := serve(conn); err != nil {
					d.serveMu.Lock()
					d.serveErrs = append(d.serveErrs, err)
					d.serveMu.Unlock()
				}
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// deploy stands the system up. With traced set, the program's own epoch
// tracing is switched on too and raw fetches go through timedSource.
func deploy(in *inputs, traced bool) (d *deployment, err error) {
	d = &deployment{in: in, sink: newAlertSink()}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if traced {
		d.rec = &recorder{t0: time.Now()}
		trace.Reset()
		trace.SetEnabled(true)
	}

	start := time.Now()
	d.ctrl, err = core.NewController(core.ControllerConfig{
		Env: scenarioEnv, Questions: in.rs.questions,
		Feedback: in.rs.feedback, UseFeedback: true,
	})
	if err != nil {
		return d, err
	}
	d.indexBuild = time.Since(start)

	// One attempt per exchange: a transport error must show as a
	// degraded epoch, not be papered over by a retry.
	retry := core.RetryConfig{Timeout: 10 * time.Second, Attempts: 1}
	for id := 0; id < numMonitors; id++ {
		d.spacers = append(d.spacers, heapSpacer())
		mon, err := core.NewMonitorSketch(id, summaryConfig(id), in.sp.sketchConfig())
		if err != nil {
			return d, err
		}
		d.monitors[id] = mon
		srv := &core.MonitorServer{Monitor: mon, WriteTimeout: 30 * time.Second}
		addr, err := d.listen(srv.Serve)
		if err != nil {
			return d, err
		}
		rm, err := core.DialMonitorRetry(func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return countConn{Conn: conn, n: &d.wire}, nil
		}, retry)
		if err != nil {
			return d, fmt.Errorf("dial monitor %d: %w", id, err)
		}
		d.remotes = append(d.remotes, rm)
		if traced {
			d.ctrl.RegisterSource(rm.ID(), timedSource{src: rm, d: d})
		} else {
			d.ctrl.RegisterSource(rm.ID(), rm)
		}
	}
	d.poller = &core.Poller{Remotes: d.remotes}

	sink := &core.AlertSink{Handler: d.sink.handle}
	addr, err := d.listen(sink.Serve)
	if err != nil {
		return d, err
	}
	d.alerts = core.NewAlertWriter(func() (net.Conn, error) { return net.Dial("tcp", addr) }, retry)
	return d, nil
}

// close tears the deployment down and waits for every goroutine it
// started. It reports the first error a serving goroutine hit.
func (d *deployment) close() error {
	if d.rec != nil {
		trace.SetEnabled(false)
		trace.Reset()
	}
	if d.alerts != nil {
		d.alerts.Close()
	}
	for _, rm := range d.remotes {
		rm.Close()
	}
	for _, ln := range d.listeners {
		ln.Close()
	}
	d.serving.Wait()
	d.serveMu.Lock()
	defer d.serveMu.Unlock()
	return errors.Join(d.serveErrs...)
}

func shaHex(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
