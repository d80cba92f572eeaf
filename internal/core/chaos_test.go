package core

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/inference"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/trafficgen"
)

// The chaos suite drives a full seeded wire deployment — monitors
// behind TCP listeners, a controller polling through the
// fault-tolerant transport — through scripted faultnet plans, and pins
// the two halves of the degradation contract:
//
//   - whenever every summary eventually arrives (faults hit request
//     writes, handshakes, or add latency — never a response that
//     already consumed monitor state), the alert stream is
//     byte-identical to the fault-free run;
//   - when a monitor is permanently lost, epochs complete degraded:
//     no hang, declines recorded, jaal_epoch_degraded_total counting;
//   - a peer that stalls in the middle of the feedback loop's raw fetch
//     costs the epoch a deadline, not its completion or its alerts.
//
// Every client read goes through wholeReadConn, so a read index names
// the same protocol read on every run however TCP segments the stream.

// wholeReadConn fills every Read: wire.ReadFrame then costs exactly one
// Read for a frame header and one for a payload of up to 64 KiB, and a
// fault plan can address any read of the exchange by index.
type wholeReadConn struct{ net.Conn }

func (c wholeReadConn) Read(p []byte) (int, error) { return io.ReadFull(c.Conn, p) }

// chaosDeployment is one wire deployment under test.
type chaosDeployment struct {
	monitors []*Monitor
	engine   *Engine
	ctrl     *Controller
	mix      *trafficgen.Mixer
}

// startChaosDeployment builds m monitors served over real TCP (accept
// loops, so reconnects find a fresh session) and connects a retrying
// remote handle through planFor(mon, conn) fault plans. With feedback
// on, every question runs the two-stage loop with τ_d1 = 0, so each
// τ_d2 match is uncertain and pulls raw packets from its monitors over
// the same handles.
func startChaosDeployment(t *testing.T, m int, rc RetryConfig, feedback bool, planFor func(mon, conn int) *faultnet.Plan) *chaosDeployment {
	t.Helper()
	cfg := ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 3000), UseFeedback: feedback}
	if feedback {
		cfg.Feedback = make(map[rules.AttackID]inference.FeedbackConfig)
		for id := range cfg.Questions {
			cfg.Feedback[id] = inference.FeedbackConfig{TauD1: 0, TauD2: 0.2}
		}
	}
	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &chaosDeployment{ctrl: ctrl, engine: &Engine{Controller: ctrl}}
	for i := 0; i < m; i++ {
		mon, err := NewMonitorSketch(i, smallSummaryConfig(), sketch.Config{})
		if err != nil {
			t.Fatal(err)
		}
		d.monitors = append(d.monitors, mon)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		var conns sync.Map
		go func(mon *Monitor) {
			srv := &MonitorServer{Monitor: mon, WriteTimeout: 5 * time.Second}
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				conns.Store(conn, struct{}{})
				go func() {
					defer conn.Close()
					srv.Serve(conn)
				}()
			}
		}(mon)
		t.Cleanup(func() {
			conns.Range(func(k, _ any) bool { k.(net.Conn).Close(); return true })
		})

		addr := ln.Addr().String()
		mi := i
		dial := faultnet.Dialer(
			func() (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return wholeReadConn{conn}, nil
			},
			func(conn int) *faultnet.Plan { return planFor(mi, conn) },
		)
		rm := NewRemoteMonitor(i, dial, rc)
		t.Cleanup(func() { rm.Close() })
		d.engine.Endpoints = append(d.engine.Endpoints, rm)
		if feedback {
			ctrl.RegisterSource(i, rm)
		}
	}

	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(1))
	atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 5, Victim: 0x0A000001})
	if err != nil {
		t.Fatal(err)
	}
	d.mix = trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 5})
	return d
}

// chaosRetryConfig keeps retries fast under the race detector: real
// deadlines (stalls must expire), recorded-but-unpaid backoff.
func chaosRetryConfig() RetryConfig {
	return RetryConfig{
		Timeout:     2 * time.Second,
		Attempts:    5,
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
		JitterSeed:  99,
		Sleep:       func(time.Duration) {}, // schedule pinned by TestRetryBackoffSchedule; don't pay it
	}
}

// ingestEpoch routes one epoch of seeded traffic to monitors by flow
// hash, so every run of a scenario ingests identically.
func ingestEpoch(t *testing.T, d *chaosDeployment, perEpoch int) {
	t.Helper()
	for _, lp := range d.mix.Batch(perEpoch) {
		h := lp.Header
		idx := int(h.Flow().FastHash() % uint64(len(d.monitors)))
		if err := d.monitors[idx].Ingest(h); err != nil {
			t.Fatal(err)
		}
	}
}

// runChaosEpochs feeds the monitors and runs the engine, epoch by epoch,
// and returns the rendered alert stream.
func runChaosEpochs(t *testing.T, d *chaosDeployment, epochs, perEpoch int) []string {
	t.Helper()
	var lines []string
	for e := 0; e < epochs; e++ {
		ingestEpoch(t, d, perEpoch)
		res, err := d.engine.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Alerts {
			lines = append(lines, a.String())
		}
	}
	return lines
}

// eventualDeliveryPlan scripts transient faults that all heal on
// retry: handshake resets and stalls, request-write resets and
// truncations, and read delays. None of them can consume monitor
// state before failing, so every summary eventually arrives.
func eventualDeliveryPlan(mon, conn int) *faultnet.Plan {
	switch {
	case mon == 0 && conn == 0:
		// First poll request resets before the frame header leaves.
		return faultnet.NewPlan(
			faultnet.Fault{Op: faultnet.OpWrite, Index: 0, Kind: faultnet.KindReset})
	case mon == 1 && conn == 0:
		// Hello stalls until the deadline; the dial retries.
		return faultnet.NewPlan(
			faultnet.Fault{Op: faultnet.OpRead, Index: 0, Kind: faultnet.KindStall})
	case mon == 1 && conn == 1:
		// The reconnect also misbehaves once: its first request is
		// truncated mid-header. The third connection heals.
		return faultnet.NewPlan(
			faultnet.Fault{Op: faultnet.OpWrite, Index: 0, Kind: faultnet.KindTruncate, KeepBytes: 3})
	case mon == 2 && conn == 0:
		// Slow link: delayed reads and request writes — latency only,
		// never lost bytes.
		return faultnet.NewPlan(
			faultnet.Fault{Op: faultnet.OpRead, Index: 1, Kind: faultnet.KindDelay, Delay: time.Millisecond},
			faultnet.Fault{Op: faultnet.OpRead, Index: 3, Kind: faultnet.KindDelay, Delay: time.Millisecond},
			faultnet.Fault{Op: faultnet.OpWrite, Index: 2, Kind: faultnet.KindDelay, Delay: time.Millisecond})
	default:
		return nil
	}
}

func TestChaosEventualDeliveryAlertsIdentical(t *testing.T) {
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()

	const monitors, epochs, perEpoch = 3, 4, 3000

	baselineD := startChaosDeployment(t, monitors, chaosRetryConfig(), false,
		func(int, int) *faultnet.Plan { return nil })
	baseline := runChaosEpochs(t, baselineD, epochs, perEpoch)
	if len(baseline) == 0 {
		t.Fatal("baseline run raised no alerts; the identity assertion would be vacuous")
	}

	// Shorter deadline so the scripted hello stall resolves quickly;
	// everything else identical.
	rc := chaosRetryConfig()
	rc.Timeout = 300 * time.Millisecond
	before := cReconnects.Value()
	faultedD := startChaosDeployment(t, monitors, rc, false, eventualDeliveryPlan)
	faulted := runChaosEpochs(t, faultedD, epochs, perEpoch)

	if got, want := strings.Join(faulted, "\n"), strings.Join(baseline, "\n"); got != want {
		t.Fatalf("alert stream diverged under transient faults:\nfaulted:\n%s\nbaseline:\n%s", got, want)
	}
	if cReconnects.Value() == before {
		t.Fatal("fault plan never forced a reconnect; the scenario tested nothing")
	}
	if bs, fs := baselineD.ctrl.Stats(), faultedD.ctrl.Stats(); bs != fs {
		t.Fatalf("stats diverged under transient faults: %+v vs %+v", fs, bs)
	}
}

func TestChaosPermanentMonitorLossDegrades(t *testing.T) {
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()

	const monitors, epochs, perEpoch = 3, 3, 3000
	const lost = 2

	rc := chaosRetryConfig()
	rc.Attempts = 3
	// Monitor `lost` resets every hello on every connection: gone for
	// good.
	d := startChaosDeployment(t, monitors, rc, false, func(mon, conn int) *faultnet.Plan {
		if mon == lost {
			return faultnet.NewPlan(
				faultnet.Fault{Op: faultnet.OpRead, Index: 0, Kind: faultnet.KindReset})
		}
		return nil
	})

	degradedBefore := cEpochDegraded.Value()
	done := make(chan struct{})
	var declines []MonitorDecline
	go func() {
		defer close(done)
		for e := 0; e < epochs; e++ {
			ingestEpoch(t, d, perEpoch)
			res, err := d.engine.RunEpoch()
			if err != nil {
				t.Errorf("epoch %d: %v", e, err)
			}
			if !res.Degraded {
				t.Errorf("epoch %d: lost monitor did not degrade the poll", e)
			}
			declines = append(declines, res.Declines...)
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("degraded epochs hung instead of completing")
	}

	if got := cEpochDegraded.Value() - degradedBefore; got != epochs {
		t.Fatalf("jaal_epoch_degraded_total advanced by %d, want %d", got, epochs)
	}
	var unreachable int
	for _, dec := range declines {
		if dec.MonitorID == lost && dec.Unreachable() {
			unreachable++
		}
	}
	if unreachable != epochs {
		t.Fatalf("recorded %d unreachable declines for monitor %d, want %d", unreachable, lost, epochs)
	}
	if st := d.ctrl.Stats(); st.Epochs != epochs || st.PacketsSummarized == 0 {
		t.Fatalf("degraded epochs did not process surviving summaries: %+v", st)
	}
}

// TestChaosRawFetchStallCompletes pins the feedback loop against a peer
// that answers its poll and then stops answering: the raw-packet
// exchange holds the handle's lock while it waits, so only the deadline
// ends the wait. Monitor `stalled` serves epoch 0's poll, then its
// connection stalls on the response to the first raw request. The epoch
// must still complete — the stalled read times out, the handle
// reconnects and asks again — and must raise the alerts of the
// fault-free run, with the other monitors' pulls served alongside.
func TestChaosRawFetchStallCompletes(t *testing.T) {
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()

	const monitors, epochs, perEpoch = 3, 3, 3000
	const stalled = 1

	// The fault-free run, and from it the read to stall: the hello and
	// each frame of the poll's answer (the summaries, then the decline
	// that ends it) cost two reads, so the header of the first raw batch
	// is read 2 + 2·(summaries + 1).
	baseline := startChaosDeployment(t, monitors, chaosRetryConfig(), true,
		func(int, int) *faultnet.Plan { return nil })
	var want string
	shipped := 0
	for e := 0; e < epochs; e++ {
		ingestEpoch(t, baseline, perEpoch)
		res, err := baseline.engine.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Summaries {
			if e == 0 && s.MonitorID == stalled {
				shipped++
			}
		}
		want += alertLines(res)
	}
	if shipped == 0 || want == "" {
		t.Fatalf("monitor %d shipped %d summaries in epoch 0 and the run raised alerts %q; the scenario would test nothing",
			stalled, shipped, want)
	}

	rc := chaosRetryConfig()
	rc.Timeout = 500 * time.Millisecond
	rawHeader := 2 + 2*(shipped+1)
	d := startChaosDeployment(t, monitors, rc, true, func(mon, conn int) *faultnet.Plan {
		if mon == stalled && conn == 0 {
			return faultnet.NewPlan(
				faultnet.Fault{Op: faultnet.OpRead, Index: rawHeader, Kind: faultnet.KindStall})
		}
		return nil
	})

	missesBefore := cDeadlineMisses.Value()
	var got string
	for e := 0; e < epochs; e++ {
		ingestEpoch(t, d, perEpoch)
		done := make(chan EpochResult, 1)
		go func() {
			res, err := d.engine.RunEpoch()
			if err != nil {
				t.Errorf("epoch %d: %v", e, err)
			}
			done <- res
		}()
		var res EpochResult
		select {
		case res = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("epoch %d hung on the stalled raw fetch instead of completing", e)
		}
		for _, dec := range res.Declines {
			if e == 0 && dec.MonitorID == stalled {
				t.Fatalf("monitor %d declined epoch 0; the stall was meant to hit its raw fetch, after the poll", stalled)
			}
		}
		got += alertLines(res)
	}
	if cDeadlineMisses.Value() == missesBefore {
		t.Fatal("the scripted stall never fired; the scenario tested nothing")
	}
	if st := d.ctrl.Stats(); st.RawPacketsFetched == 0 {
		t.Fatalf("no raw packets fetched: %+v", st)
	}
	if got != want {
		t.Fatalf("alert stream diverged after the stalled raw fetch:\nstalled:\n%s\nbaseline:\n%s", got, want)
	}
	if bs, fs := baseline.ctrl.Stats(), d.ctrl.Stats(); bs != fs {
		t.Fatalf("stats diverged after the stalled raw fetch: %+v vs %+v", fs, bs)
	}
}

// TestReconnectRejectsWrongMonitor pins the identity check: a
// reconnect that reaches a different monitor must fail loudly, not
// silently merge another monitor's traffic into the epoch.
func TestReconnectRejectsWrongMonitor(t *testing.T) {
	mkServer := func(id int) string {
		m, err := NewMonitorSketch(id, smallSummaryConfig(), sketch.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					(&MonitorServer{Monitor: m}).Serve(conn)
				}()
			}
		}()
		return ln.Addr().String()
	}
	addr5, addr6 := mkServer(5), mkServer(6)

	var mu sync.Mutex
	dials := 0
	dial := func() (net.Conn, error) {
		mu.Lock()
		n := dials
		dials++
		mu.Unlock()
		if n == 0 {
			return net.Dial("tcp", addr5)
		}
		return net.Dial("tcp", addr6)
	}
	rc := chaosRetryConfig()
	rc.Attempts = 3
	rm, err := DialMonitorRetry(dial, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	if rm.ID() != 5 {
		t.Fatalf("connected to monitor %d, want 5", rm.ID())
	}
	rm.Close() // force the next exchange to reconnect — to the wrong monitor
	if _, _, _, err := rm.Poll(0); err == nil || !strings.Contains(err.Error(), "5") {
		t.Fatalf("reconnect to a different monitor must fail with an identity error, got %v", err)
	}
}

// TestRetryBackoffSchedule pins the capped-exponential-with-jitter
// schedule: deterministic for a seeded jitter source, capped at
// BackoffMax, jittered by at most 50 %.
func TestRetryBackoffSchedule(t *testing.T) {
	base := RetryConfig{BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond}
	for n, want := range []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	} {
		if got := base.backoff(n, base.jitterSource(0)); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", n, got, want)
		}
	}

	jittered := base
	jittered.JitterSeed = 3
	src := jittered.jitterSource(0)
	for n := 0; n < 6; n++ {
		plain := base.backoff(n, nil)
		got := jittered.backoff(n, src)
		if got < plain || got > plain+plain/2 {
			t.Fatalf("jittered backoff(%d) = %v outside [%v, %v]", n, got, plain, plain+plain/2)
		}
	}
	// Same seed, same client: same schedule. Same seed, another client:
	// a source of its own, so a different one.
	rc := RetryConfig{BackoffBase: time.Millisecond, JitterSeed: 7}
	a, b, other := rc.jitterSource(1), rc.jitterSource(1), rc.jitterSource(2)
	differs := false
	for n := 0; n < 8; n++ {
		wa := rc.backoff(n, a)
		if wa != rc.backoff(n, b) {
			t.Fatalf("same-seed jitter diverged at retry %d", n)
		}
		differs = differs || wa != rc.backoff(n, other)
	}
	if !differs {
		t.Fatal("two monitors drew the same jitter schedule from one seed")
	}
}

// TestRetryBackoffUncappedSaturates: without BackoffMax the doubling
// must saturate, not wrap. A wrapped wait is negative or zero, which
// sleep skips, so the retry loop would spin with no backoff at all.
func TestRetryBackoffUncappedSaturates(t *testing.T) {
	rc := RetryConfig{BackoffBase: 100 * time.Millisecond, JitterSeed: 5}
	src := rc.jitterSource(0)
	var prev time.Duration
	for n := 0; n <= 100; n++ {
		d := rc.backoff(n, nil)
		if d <= 0 || d < prev {
			t.Fatalf("backoff(%d) = %v after %v: want positive and non-decreasing", n, d, prev)
		}
		if j := rc.backoff(n, src); j < d {
			t.Fatalf("jittered backoff(%d) = %v, below its base %v", n, j, d)
		}
		prev = d
	}
}

// TestClientsShareOneRetryLoop drives a RemoteMonitor and an AlertWriter
// through the same fault plan — connection 0 resets on its first write,
// connection 1 stalls its first write past Timeout, connection 2 is
// clean — and wants the same recovery from both: three dials, backoff(0)
// then backoff(1) from the client's own jitter source, two reconnects
// and one deadline miss.
func TestClientsShareOneRetryLoop(t *testing.T) {
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()

	listen := func(serve func(net.Conn) error) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					serve(conn)
				}()
			}
		}()
		return ln.Addr().String()
	}
	const id = 3
	mon, err := NewMonitorSketch(id, smallSummaryConfig(), sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan := func(conn int) *faultnet.Plan {
		switch conn {
		case 0:
			return faultnet.NewPlan(faultnet.Fault{Op: faultnet.OpWrite, Index: 0, Kind: faultnet.KindReset})
		case 1:
			return faultnet.NewPlan(faultnet.Fault{Op: faultnet.OpWrite, Index: 0, Kind: faultnet.KindStall})
		}
		return nil
	}

	for _, c := range []struct {
		name string
		addr string
		salt int64
		run  func(DialFunc, RetryConfig) error
	}{
		{"remote monitor", listen((&MonitorServer{Monitor: mon}).Serve), id, func(dial DialFunc, rc RetryConfig) error {
			rm := NewRemoteMonitor(id, dial, rc)
			defer rm.Close()
			_, err := rm.QueryLoad()
			return err
		}},
		{"alert writer", listen((&AlertSink{}).Serve), jitterSaltAlert, func(dial DialFunc, rc RetryConfig) error {
			// Send only queues the frame; Close flushes it through the
			// retry loop and reports how that went.
			w := NewAlertWriter(dial, rc)
			if err := w.Send(&inference.Alert{Attack: rules.AttackSYNFlood, SID: 10001, Epoch: 1, Msg: "SYN flood"}); err != nil {
				w.Close()
				return err
			}
			return w.Close()
		}},
	} {
		var slept []time.Duration
		rc := RetryConfig{
			Timeout: 200 * time.Millisecond, Attempts: 3,
			BackoffBase: time.Millisecond, BackoffMax: 8 * time.Millisecond, JitterSeed: 99,
			Sleep: func(d time.Duration) { slept = append(slept, d) },
		}
		dials := 0
		dial := faultnet.Dialer(func() (net.Conn, error) {
			dials++
			return net.Dial("tcp", c.addr)
		}, plan)
		reconnects, misses := cReconnects.Value(), cDeadlineMisses.Value()

		done := make(chan error, 1)
		go func() { done <- c.run(dial, rc) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: hung on the stalled write", c.name)
		}

		if dials != 3 {
			t.Fatalf("%s: %d dials, want 3", c.name, dials)
		}
		src := rc.jitterSource(c.salt)
		if want := []time.Duration{rc.backoff(0, src), rc.backoff(1, src)}; len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
			t.Fatalf("%s: slept %v, want %v", c.name, slept, want)
		}
		if d := cReconnects.Value() - reconnects; d != 2 {
			t.Fatalf("%s: jaal_transport_reconnects_total moved by %d, want 2", c.name, d)
		}
		if d := cDeadlineMisses.Value() - misses; d != 1 {
			t.Fatalf("%s: jaal_transport_deadline_misses_total moved by %d, want 1", c.name, d)
		}
	}
}
