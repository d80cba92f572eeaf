package core

import (
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/inference"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/snort"
	"repro/internal/summary"
	"repro/internal/wire"
)

// frameCountConn counts the MsgRawRequest frames written through it.
// WriteFrame hands every frame of a working deployment to the
// connection in one Write, so the type byte sits at offset 4 of a write.
type frameCountConn struct {
	net.Conn
	rawRequests *atomic.Int32
}

func (c frameCountConn) Write(p []byte) (int, error) {
	if len(p) > 4 && wire.MsgType(p[4]) == wire.MsgRawRequest {
		c.rawRequests.Add(1)
	}
	return c.Conn.Write(p)
}

// serveLoopback puts m behind a MonitorServer on a loopback TCP listener
// and returns a handle to it whose writes count raw requests.
func serveLoopback(t *testing.T, m *Monitor, rawRequests *atomic.Int32) *RemoteMonitor {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		(&MonitorServer{Monitor: m}).Serve(conn)
	}()
	rm, err := DialMonitorRetry(func() (net.Conn, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		return frameCountConn{Conn: conn, rawRequests: rawRequests}, nil
	}, RetryConfig{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rm.Close() })
	return rm
}

// runRound runs one inference round over ss with the given raw sources
// registered for monitors 1 and 2 (a nil source stays unregistered), and
// returns its alerts and stats.
func runRound(t *testing.T, ss []*summary.Summary, qs map[rules.AttackID]*rules.Question,
	fb map[rules.AttackID]inference.FeedbackConfig, src1, src2 RawSource) (string, Stats) {
	t.Helper()
	ctrl, err := NewController(ControllerConfig{Env: testEnv(), Questions: qs, Feedback: fb, UseFeedback: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []RawSource{src1, src2} {
		if src != nil {
			ctrl.RegisterSource(i+1, src)
		}
	}
	alerts, err := ctrl.ProcessEpoch(ss)
	if err != nil {
		t.Fatal(err)
	}
	return alertsString(alerts), ctrl.Stats()
}

func alertsString(alerts []*inference.Alert) string {
	var s string
	for _, a := range alerts {
		s += a.String() + "\n"
	}
	return s
}

// TestSettleUncertainOneRequestPerMonitor pins the tentpole of the
// batched raw fetch: a round whose uncertain questions want centroids on
// both monitors sends each monitor exactly one MsgRawRequest, and gets
// the same alerts and accounting as the in-process round.
func TestSettleUncertainOneRequestPerMonitor(t *testing.T) {
	ms, ss, qs, fb := twoMonitorRound(t)
	var requests [2]atomic.Int32
	rm1 := serveLoopback(t, ms[0], &requests[0])
	rm2 := serveLoopback(t, ms[1], &requests[1])

	lifted := [2]*countingSource{
		{inner: ms[0], calls: make(map[[2]uint64]int)},
		{inner: ms[1], calls: make(map[[2]uint64]int)},
	}
	wantAlerts, wantStats := runRound(t, ss, qs, fb, lifted[0], lifted[1])
	for i, s := range lifted {
		if len(s.calls) < 2 {
			t.Fatalf("monitor %d was asked for %d centroids; the round needs several on both monitors", i+1, len(s.calls))
		}
	}

	gotAlerts, gotStats := runRound(t, ss, qs, fb, rm1, rm2)
	for i := range requests {
		if n := requests[i].Load(); n != 1 {
			t.Errorf("monitor %d got %d raw requests in one round, want 1", i+1, n)
		}
	}
	if gotAlerts != wantAlerts || gotStats != wantStats {
		t.Fatalf("wire round differs from the in-process one:\n%s%+v\nvs\n%s%+v", gotAlerts, gotStats, wantAlerts, wantStats)
	}
}

// TestSettleUncertainBatchEqualsLifted registers the monitors directly
// (one RawBatch per monitor) and through countingSource (RegisterSource's
// one-call-per-centroid lift): the same summaries must settle every
// question alike and give equal alerts and Stats.
func TestSettleUncertainBatchEqualsLifted(t *testing.T) {
	ms, ss, qs, fb := twoMonitorRound(t)
	agg, err := inference.AggregateSummaries(ss)
	if err != nil {
		t.Fatal(err)
	}
	var matcher inference.RawMatcher = snort.RawMatcher{Env: testEnv()}
	settle := func(src1, src2 RawSource) ([]qresult, int) {
		ctrl, err := NewController(ControllerConfig{Env: testEnv(), Questions: qs, Feedback: fb, UseFeedback: true})
		if err != nil {
			t.Fatal(err)
		}
		ctrl.RegisterSource(1, src1)
		ctrl.RegisterSource(2, src2)
		results := make([]qresult, len(ctrl.ids))
		for i, id := range ctrl.ids {
			results[i].fb, results[i].err = inference.StageFeedbackIndexed(agg, ctrl.qs[i], fb[id], true)
		}
		return results, ctrl.settleUncertain(agg, 0, results, matcher)
	}

	batch, batchN := settle(ms[0], ms[1])
	lifted := [2]*countingSource{
		{inner: ms[0], calls: make(map[[2]uint64]int)},
		{inner: ms[1], calls: make(map[[2]uint64]int)},
	}
	perRefResults, perRefN := settle(lifted[0], lifted[1])
	if len(lifted[0].calls) == 0 || len(lifted[1].calls) == 0 || batchN == 0 {
		t.Fatalf("round fetched %d headers from %d and %d centroids; the test exercises nothing",
			batchN, len(lifted[0].calls), len(lifted[1].calls))
	}
	if batchN != perRefN {
		t.Errorf("batch path transferred %d headers, lifted path %d", batchN, perRefN)
	}
	if !reflect.DeepEqual(batch, perRefResults) {
		t.Error("batch and lifted paths settled the round's questions differently")
	}

	a1, s1 := runRound(t, ss, qs, fb, ms[0], ms[1])
	a2, s2 := runRound(t, ss, qs, fb,
		&countingSource{inner: ms[0], calls: make(map[[2]uint64]int)},
		&countingSource{inner: ms[1], calls: make(map[[2]uint64]int)})
	if a1 != a2 || s1 != s2 {
		t.Fatalf("batch path:\n%s%+v\nlifted path:\n%s%+v", a1, s1, a2, s2)
	}
	if s1.AlertsRaised == 0 {
		t.Fatal("round raised no alerts; the alert comparison is vacuous")
	}
}

// emptySource answers every centroid with no packets and counts the
// centroids it was asked for.
type emptySource struct{ asked int }

func (s *emptySource) RawPackets(uint64, int) []packet.Header {
	s.asked++
	return nil
}

// TestSettleUncertainConnClosedMidBatch closes one monitor's connection
// after it reads the round's raw request. The epoch completes; only that
// monitor's centroids read as empty — the round equals one in which that
// monitor answered every centroid with nothing — and each of them is
// counted in jaal_feedback_fetch_failures_total.
func TestSettleUncertainConnClosedMidBatch(t *testing.T) {
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()

	ms, ss, qs, fb := twoMonitorRound(t)
	var requests atomic.Int32
	rm1 := serveLoopback(t, ms[0], &requests)
	client, server := net.Pipe()
	go func() {
		wire.WriteFrame(server, wire.MsgHello, wire.EncodeHello(2))
		wire.ReadFrame(server) // the round's raw request
		server.Close()
	}()
	rm2, err := DialMonitorRetry(oneShot(client), RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rm2.Close()

	empty := &emptySource{}
	wantAlerts, wantStats := runRound(t, ss, qs, fb, ms[0], empty)
	if empty.asked == 0 || wantStats.RawPacketsFetched == 0 {
		t.Fatalf("monitor 2 was asked for %d centroids and monitor 1 served %d headers; the test exercises nothing",
			empty.asked, wantStats.RawPacketsFetched)
	}

	before := cFetchFailures.Value()
	gotAlerts, gotStats := runRound(t, ss, qs, fb, rm1, rm2)
	if gotAlerts != wantAlerts || gotStats != wantStats {
		t.Fatalf("round with monitor 2's connection closed:\n%s%+v\nwant monitor 2 read as empty:\n%s%+v",
			gotAlerts, gotStats, wantAlerts, wantStats)
	}
	if d := cFetchFailures.Value() - before; d != int64(empty.asked) {
		t.Fatalf("jaal_feedback_fetch_failures_total moved by %d, want monitor 2's %d centroids", d, empty.asked)
	}
}
