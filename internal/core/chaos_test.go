package core

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
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
//     no hang, declines recorded, jaal_epoch_degraded_total counting.
//
// Fault plans only script resets/stalls on write ops and on read 0
// (the hello): client write boundaries are deterministic, while TCP
// segmentation may split later reads unpredictably, so only delays —
// which never change protocol bytes — are scheduled on other reads.

// chaosDeployment is one wire deployment under test.
type chaosDeployment struct {
	monitors []*Monitor
	engine   *Engine
	ctrl     *Controller
	mix      *trafficgen.Mixer
}

// startChaosDeployment builds m monitors served over real TCP (accept
// loops, so reconnects find a fresh session) and connects a retrying
// remote handle through planFor(mon, conn) fault plans.
func startChaosDeployment(t *testing.T, m int, rc RetryConfig, planFor func(mon, conn int) *faultnet.Plan) *chaosDeployment {
	t.Helper()
	d := &chaosDeployment{}
	var endpoints []Endpoint
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
			func() (net.Conn, error) { return net.Dial("tcp", addr) },
			func(conn int) *faultnet.Plan { return planFor(mi, conn) },
		)
		rm := NewRemoteMonitor(i, dial, rc)
		t.Cleanup(func() { rm.Close() })
		endpoints = append(endpoints, rm)
	}
	ctrl, err := NewController(ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 3000)})
	if err != nil {
		t.Fatal(err)
	}
	d.ctrl = ctrl
	d.engine = &Engine{Controller: ctrl, Endpoints: endpoints}

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

	baselineD := startChaosDeployment(t, monitors, chaosRetryConfig(),
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
	faultedD := startChaosDeployment(t, monitors, rc, eventualDeliveryPlan)
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
	d := startChaosDeployment(t, monitors, rc, func(mon, conn int) *faultnet.Plan {
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
