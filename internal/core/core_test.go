package core

import (
	"math/rand"
	"net"
	"net/netip"
	"testing"

	"repro/internal/flowassign"
	"repro/internal/inference"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// testQuestions translates the library at the low-FPR operating point
// and rescales the count thresholds to the test's epoch volume.
func testQuestions(t testing.TB, volume int) map[rules.AttackID]*rules.Question {
	t.Helper()
	env := rules.NewEnvironment()
	env.Set("HOME_NET", netip.MustParsePrefix("10.0.0.0/8"))
	qs, err := rules.LibraryQuestions(env, rules.TranslateConfig{
		DefaultDistanceThreshold: 0.05,
		VarianceThreshold:        0.003,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, q := range qs {
		qs[id] = q.ScaleForVolume(volume)
	}
	return qs
}

func testEnv() *rules.Environment {
	env := rules.NewEnvironment()
	env.Set("HOME_NET", netip.MustParsePrefix("10.0.0.0/8"))
	return env
}

func smallSummaryConfig() summary.Config {
	return summary.Config{BatchSize: 500, Rank: 12, Centroids: 100, MinBatch: 100, Seed: 3}
}

func TestMonitorBatchingAndSummaries(t *testing.T) {
	m, err := NewMonitorSketch(1, smallSummaryConfig(), sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(1))
	if err := m.IngestBatch(bg.Batch(1200)); err != nil {
		t.Fatal(err)
	}
	ss, pending, err := m.CollectSummaries()
	if err != nil {
		t.Fatal(err)
	}
	// 1200 packets = 2 sealed batches of 500 + 200 pending (>= MinBatch
	// 100, so flushed into a third summary).
	if len(ss) != 3 {
		t.Fatalf("got %d summaries, want 3", len(ss))
	}
	if pending != 0 {
		t.Fatalf("pending = %d, want 0 after flush", pending)
	}
	for _, s := range ss {
		if s.MonitorID != 1 {
			t.Fatalf("summary monitor ID = %d", s.MonitorID)
		}
	}
}

func TestMonitorDeclinesBelowMinBatch(t *testing.T) {
	m, err := NewMonitorSketch(2, smallSummaryConfig(), sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(2))
	if err := m.IngestBatch(bg.Batch(50)); err != nil { // < MinBatch 100
		t.Fatal(err)
	}
	ss, pending, err := m.CollectSummaries()
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 0 || pending != 50 {
		t.Fatalf("got %d summaries, %d pending; want 0 and 50", len(ss), pending)
	}
}

func TestMonitorRawRetention(t *testing.T) {
	m, err := NewMonitorSketch(3, smallSummaryConfig(), sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(3))
	if err := m.IngestBatch(bg.Batch(500)); err != nil {
		t.Fatal(err)
	}
	// The poll that ships the batch ends the monitor's epoch, and the
	// batch is still there for the inference round that follows it.
	ss, _, _, err := m.Poll(0)
	if err != nil || len(ss) != 1 {
		t.Fatalf("summaries: %v %v", len(ss), err)
	}
	s := ss[0]
	retained := func() int {
		total := 0
		for c := 0; c < s.K(); c++ {
			total += len(m.RawPackets(s.Epoch, c))
		}
		return total
	}
	if got := retained(); got != 500 {
		t.Fatalf("retained %d raw packets, want 500", got)
	}
	// A poll that declines leaves the epoch open: nothing expires.
	if err := m.IngestBatch(bg.Batch(50)); err != nil { // < MinBatch 100
		t.Fatal(err)
	}
	if ss, pending, _, err := m.Poll(1); err != nil || len(ss) != 0 || pending != 50 {
		t.Fatalf("declining poll: %d summaries, %d pending, err %v", len(ss), pending, err)
	}
	if got := retained(); got != 500 {
		t.Fatalf("a declining poll expired retention: %d raw packets left, want 500", got)
	}
	// The next epoch end is the second since the batch was sealed.
	if err := m.IngestBatch(bg.Batch(450)); err != nil {
		t.Fatal(err)
	}
	if ss, _, _, err := m.Poll(2); err != nil || len(ss) != 1 {
		t.Fatalf("second shipping poll: %d summaries, err %v", len(ss), err)
	}
	if got := retained(); got != 0 {
		t.Fatalf("retention must expire at the second epoch end, %d raw packets left", got)
	}
}

func TestMonitorLoadAndReset(t *testing.T) {
	m, _ := NewMonitorSketch(4, smallSummaryConfig(), sketch.Config{})
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(4))
	m.IngestBatch(bg.Batch(42))
	if l := m.LoadAndReset(); l != 42 {
		t.Fatalf("load = %d, want 42", l)
	}
	if l := m.LoadAndReset(); l != 0 {
		t.Fatalf("load after reset = %d, want 0", l)
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(ControllerConfig{}); err == nil {
		t.Fatal("empty question set must be rejected")
	}
	qs := testQuestions(t, 1000)
	bad := ControllerConfig{
		Questions: qs,
		Feedback: map[rules.AttackID]inference.FeedbackConfig{
			rules.AttackSYNFlood: {TauD1: 0.5, TauD2: 0.1},
		},
	}
	if _, err := NewController(bad); err == nil {
		t.Fatal("inverted feedback thresholds must be rejected")
	}
}

func TestPipelineDetectsDistributedSYNFlood(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 4,
		Summary:     smallSummaryConfig(),
		Controller:  ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 8000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(5))
	atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 5, Victim: 0x0A000001})
	if err != nil {
		t.Fatal(err)
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 5})
	for _, lp := range mix.Batch(8000) {
		if err := p.Ingest(lp.Header); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, a := range res.Alerts {
		if a.Attack == rules.AttackDistributedSYNFlood && a.Distributed {
			found = true
		}
	}
	if !found {
		t.Fatalf("distributed SYN flood not detected; alerts: %v", res.Alerts)
	}
	st := p.Controller.Stats()
	if st.PacketsSummarized == 0 || st.SummaryElements == 0 {
		t.Fatalf("stats not accounted: %+v", st)
	}
	// Headline overhead property: summaries cost well under raw headers.
	if st.OverheadFraction() >= 1 {
		t.Fatalf("summary overhead fraction %.2f must be < 1", st.OverheadFraction())
	}
}

func TestPipelineCleanTrafficNoFloodAlert(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 3,
		Summary:     smallSummaryConfig(),
		Controller:  ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 6000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(6))
	for _, h := range bg.Batch(6000) {
		if err := p.Ingest(h); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Alerts {
		if a.Attack == rules.AttackDistributedSYNFlood || a.Attack == rules.AttackSYNFlood {
			t.Fatalf("false flood alert on clean traffic: %v", a)
		}
	}
}

func TestPipelineFlowStickiness(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 4,
		Summary:     smallSummaryConfig(),
		Controller:  ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 1000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := packet.Header{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Protocol: packet.ProtoTCP}
	for i := 0; i < 10; i++ {
		if err := p.Ingest(h); err != nil {
			t.Fatal(err)
		}
	}
	// All 10 packets must land on a single monitor (each flow monitored
	// exactly once, §6).
	withLoad := 0
	for _, m := range p.Monitors {
		if m.LoadAndReset() > 0 {
			withLoad++
		}
	}
	if withLoad != 1 {
		t.Fatalf("flow spread over %d monitors, want 1", withLoad)
	}
}

// TestPipelinePlacesFlowsLikeGreedy pins the pipeline's placement to
// §6's greedy over its one group of every monitor at weight 1: each new
// flow goes to the least-loaded monitor, ties to the lower ID. The two
// directions of a flow are two flows with one FlowID (FastHash is
// symmetric), and every packet of a placed flow follows it.
func TestPipelinePlacesFlowsLikeGreedy(t *testing.T) {
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(5))
	var hs []packet.Header
	for i, h := range bg.Batch(20000) {
		hs = append(hs, h)
		if i%7 == 0 {
			r := h
			r.SrcIP, r.DstIP, r.SrcPort, r.DstPort = h.DstIP, h.SrcIP, h.DstPort, h.SrcPort
			hs = append(hs, r)
		}
	}
	for _, numMonitors := range []int{1, 2, 3, 4, 7} {
		p, err := NewPipeline(PipelineConfig{
			NumMonitors: numMonitors,
			Summary:     smallSummaryConfig(),
			Controller:  ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 1000)},
		})
		if err != nil {
			t.Fatal(err)
		}
		greedy := flowassign.NewGreedy()
		group := make([]flowassign.MonitorID, numMonitors)
		for i := range group {
			group[i] = flowassign.MonitorID(i)
		}
		want := make(map[packet.FlowKey]int)
		load := make([]int, numMonitors)
		repeats := 0
		for _, h := range hs {
			if err := p.Ingest(h); err != nil {
				t.Fatal(err)
			}
			key := h.Flow()
			m, ok := want[key]
			if ok {
				repeats++
			} else {
				mid, err := greedy.Assign(flowassign.FlowID(key.FastHash()), group, 1)
				if err != nil {
					t.Fatal(err)
				}
				m = int(mid)
				want[key] = m
			}
			load[m]++
		}
		if repeats == 0 {
			t.Fatal("traffic repeats no flow")
		}
		for _, h := range hs {
			key := h.Flow()
			if got, ok := p.flowToMonitor[key]; !ok || got != want[key] {
				t.Fatalf("M=%d: flow %+v on monitor %d (placed %v), greedy picks %d", numMonitors, key, got, ok, want[key])
			}
		}
		for i, m := range p.Monitors {
			if got := m.LoadAndReset(); got != load[i] {
				t.Fatalf("M=%d: monitor %d ingested %d packets, greedy's placement sends it %d", numMonitors, i, got, load[i])
			}
		}
	}
}

func TestPipelineFeedbackAccounting(t *testing.T) {
	qs := testQuestions(t, 4000)
	fb := make(map[rules.AttackID]inference.FeedbackConfig)
	for id := range qs {
		// τ_d1 = 0 forces the uncertain path whenever τ_d2 matches.
		fb[id] = inference.FeedbackConfig{TauD1: 0, TauD2: 0.2}
	}
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 2,
		Summary:     smallSummaryConfig(),
		Controller: ControllerConfig{
			Env: testEnv(), Questions: qs, Feedback: fb, UseFeedback: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(7))
	atk, _ := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 7, Victim: 0x0A000001})
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 7})
	for _, lp := range mix.Batch(4000) {
		if err := p.Ingest(lp.Header); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	st := p.Controller.Stats()
	if st.RawPacketsFetched == 0 {
		t.Fatal("feedback loop must have fetched raw packets")
	}
	if st.FeedbackBytes() == 0 {
		t.Fatal("feedback bytes must be accounted")
	}
}

func TestTransportEndToEnd(t *testing.T) {
	m, err := NewMonitorSketch(9, smallSummaryConfig(), sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(8))
	if err := m.IngestBatch(bg.Batch(600)); err != nil {
		t.Fatal(err)
	}

	client, server := net.Pipe()
	srv := &MonitorServer{Monitor: m}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(server) }()

	remote, err := DialMonitorRetry(oneShot(client), RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if remote.ID() != 9 {
		t.Fatalf("remote ID = %d, want 9", remote.ID())
	}

	load, err := remote.QueryLoad()
	if err != nil {
		t.Fatal(err)
	}
	if load != 600 {
		t.Fatalf("load = %v, want 600", load)
	}

	ss, _, _, err := remote.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	// 600 packets = 1 sealed batch of 500 + 100 pending (= MinBatch →
	// flushed): 2 summaries.
	if len(ss) != 2 {
		t.Fatalf("polled %d summaries, want 2", len(ss))
	}

	// Raw fetch round trip for the first centroid with members.
	s := ss[0]
	var centroid int = -1
	for c, n := range s.Counts {
		if n > 0 {
			centroid = c
			break
		}
	}
	if centroid == -1 {
		t.Fatal("no populated centroid")
	}
	hs := remote.RawPackets(s.Epoch, centroid)
	if len(hs) != s.Counts[centroid] {
		t.Fatalf("raw fetch returned %d headers, counts say %d", len(hs), s.Counts[centroid])
	}

	remote.Close()
	if err := <-done; err != nil {
		t.Fatalf("server exited with %v", err)
	}
}

func TestTransportOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	m, _ := NewMonitorSketch(11, smallSummaryConfig(), sketch.Config{})
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(9))
	m.IngestBatch(bg.Batch(500))

	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		(&MonitorServer{Monitor: m}).Serve(conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	remote, err := DialMonitorRetry(oneShot(conn), RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ss, _, _, err := remote.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 1 {
		t.Fatalf("polled %d summaries over TCP, want 1", len(ss))
	}
	// Feed the polled summaries through a controller: full remote path.
	ctrl, err := NewController(ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 500)})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.RegisterSource(remote.ID(), remote)
	if _, err := ctrl.ProcessEpoch(ss); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineMonitorSeedsDiffer(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 2,
		Summary:     smallSummaryConfig(),
		Controller:  ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 500)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Identical input to both monitors must not produce identical
	// k-means initializations (seeds are decorrelated per monitor).
	rng := rand.New(rand.NewSource(10))
	hs := make([]packet.Header, 500)
	for i := range hs {
		hs[i] = packet.Header{SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			Protocol: packet.ProtoTCP, Flags: packet.FlagACK,
			SrcPort: uint16(rng.Intn(65536)), DstPort: 80, Window: uint16(rng.Intn(65536))}
	}
	p.Monitors[0].IngestBatch(hs)
	p.Monitors[1].IngestBatch(hs)
	s0, _, _ := p.Monitors[0].CollectSummaries()
	s1, _, _ := p.Monitors[1].CollectSummaries()
	if len(s0) != 1 || len(s1) != 1 {
		t.Fatal("expected one summary each")
	}
	identical := true
	for i := 0; i < s0[0].Centroids.Rows() && identical; i++ {
		for j := 0; j < s0[0].Centroids.Cols(); j++ {
			if s0[0].Centroids.At(i, j) != s1[0].Centroids.At(i, j) {
				identical = false
				break
			}
		}
	}
	if identical {
		t.Fatal("monitor seeds must be decorrelated")
	}
}
