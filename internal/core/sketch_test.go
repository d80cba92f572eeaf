package core

import (
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/trafficgen"
)

// sketchPipeline builds a small two-monitor pipeline with the given
// sketch config over the standard test question set.
func sketchPipeline(t *testing.T, scfg sketch.Config) *Pipeline {
	t.Helper()
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 2,
		Summary:     smallSummaryConfig(),
		Sketch:      scfg,
		Controller:  ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 4000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// floodPackets generates one epoch of background+flood traffic.
func floodPackets(t *testing.T, seed int64, n int) []trafficgen.LabeledPacket {
	t.Helper()
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(seed))
	atk, err := trafficgen.NewAttack(rules.AttackSYNFlood,
		trafficgen.AttackConfig{Seed: seed, Victim: 0x0A00002A})
	if err != nil {
		t.Fatal(err)
	}
	return trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: seed}).Batch(n)
}

// With the sketch on but the watermark never reached, no packet is shed
// and the run — alerts, stats, summary accounting — is byte-identical
// to a sketchless pipeline; the digest is pure side channel.
func TestPipelineSketchOnNoShedIsByteIdentical(t *testing.T) {
	run := func(scfg sketch.Config) ([]string, Stats, *VolumetricReport) {
		p := sketchPipeline(t, scfg)
		var alerts []string
		for epoch := 0; epoch < 3; epoch++ {
			for _, lp := range floodPackets(t, 21, 4000) {
				if err := p.Ingest(lp.Header); err != nil {
					t.Fatal(err)
				}
			}
			as, err := p.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range as {
				alerts = append(alerts, a.String())
			}
		}
		return alerts, p.Controller.Stats(), p.Controller.Volumetric()
	}

	plainAlerts, plainStats, plainVol := run(sketch.Config{})
	sketchAlerts, sketchStats, sketchVol := run(sketch.Config{Enabled: true, ShedWatermark: 1 << 30})

	if !reflect.DeepEqual(plainAlerts, sketchAlerts) {
		t.Fatalf("alerts differ with sketch on (no shedding):\nplain:  %v\nsketch: %v", plainAlerts, sketchAlerts)
	}
	if plainStats != sketchStats {
		t.Fatalf("stats differ with sketch on (no shedding):\nplain:  %+v\nsketch: %+v", plainStats, sketchStats)
	}
	if plainVol != nil {
		t.Fatal("sketchless pipeline must produce no volumetric report")
	}
	if sketchVol == nil || sketchVol.Shed != 0 || sketchVol.Offered == 0 {
		t.Fatalf("sketch pipeline must report a shed-free volumetric epoch, got %+v", sketchVol)
	}
}

// Under a tight watermark the pipeline sheds, keeps accounting honest,
// and the controller's volumetric report names the flood victim from
// digests alone.
func TestPipelineShedsAndIssuesVolumetricVerdicts(t *testing.T) {
	p := sketchPipeline(t, sketch.Config{Enabled: true, ShedWatermark: 500})
	for _, lp := range floodPackets(t, 22, 12000) {
		if err := p.Ingest(lp.Header); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	rep := p.Controller.Volumetric()
	if rep == nil {
		t.Fatal("no volumetric report after a digest-carrying epoch")
	}
	if rep.Monitors != 2 {
		t.Fatalf("report merged %d digests, want 2", rep.Monitors)
	}
	if rep.Offered != 12000 {
		t.Fatalf("merged offered = %d, want 12000", rep.Offered)
	}
	if rep.Shed == 0 || rep.Kept+rep.Shed != rep.Offered {
		t.Fatalf("shed accounting inconsistent: %+v", rep)
	}
	if rep.Flows == 0 {
		t.Fatal("merged flow estimate must be positive")
	}
	var victimVerdict *VolumetricVerdict
	for i := range rep.Verdicts {
		v := &rep.Verdicts[i]
		if v.Dimension == "dst" && v.Addr == 0x0A00002A {
			victimVerdict = v
		}
	}
	if victimVerdict == nil {
		t.Fatalf("flood victim missing from volumetric verdicts: %+v", rep.Verdicts)
	}
	if victimVerdict.Share < defaultVolumetricShare {
		t.Fatalf("victim share %.3f below the verdict gate", victimVerdict.Share)
	}
}

// The digest crosses the wire as a trailer on the first summary frame
// and survives alongside the trace-context trailer machinery.
func TestSketchDigestOverWire(t *testing.T) {
	m, err := NewMonitorSketch(7, smallSummaryConfig(),
		sketch.Config{Enabled: true, ShedWatermark: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range floodPackets(t, 23, 3000) {
		if err := m.Ingest(lp.Header); err != nil {
			t.Fatal(err)
		}
	}

	client, server := net.Pipe()
	srv := &MonitorServer{Monitor: m}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(server) }()

	remote, err := DialMonitorRetry(oneShot(client), RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ss, _, dg, err := remote.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) == 0 {
		t.Fatal("poll returned no summaries")
	}
	if dg == nil {
		t.Fatal("poll returned no sketch digest")
	}
	if dg.MonitorID != 7 {
		t.Fatalf("digest monitor ID = %d, want 7", dg.MonitorID)
	}
	if dg.Offered != 3000 || dg.Kept+dg.Shed != dg.Offered {
		t.Fatalf("digest accounting inconsistent over the wire: %+v", dg)
	}
	if dg.Shed == 0 {
		t.Fatal("tight watermark must have shed packets")
	}
	if dg.FlowEstimate() == 0 {
		t.Fatal("digest flow estimate must survive the wire")
	}
	if len(dg.TopDst) == 0 {
		t.Fatal("digest heavy hitters must survive the wire")
	}

	// The next poll follows AdvanceEpoch: sketches reset, nothing
	// buffered → decline, and a decline carries no digest.
	ss, _, dg, err = remote.Poll(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 0 || dg != nil {
		t.Fatalf("post-reset poll: %d summaries, digest %v; want none", len(ss), dg)
	}

	remote.Close()
	if err := <-done; err != nil {
		t.Fatalf("server exited with %v", err)
	}
}

// A plain monitor (sketch off) ships no digest trailer: its frames are
// byte-identical to the pre-sketch wire format.
func TestNoDigestTrailerWhenSketchOff(t *testing.T) {
	m, err := NewMonitorSketch(3, smallSummaryConfig(), sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(24))
	if err := m.IngestBatch(bg.Batch(600)); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	srv := &MonitorServer{Monitor: m}
	go srv.Serve(server)
	remote, err := DialMonitorRetry(oneShot(client), RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ss, _, dg, err := remote.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) == 0 {
		t.Fatal("poll returned no summaries")
	}
	if dg != nil {
		t.Fatalf("sketchless monitor shipped a digest: %+v", dg)
	}
}

func TestMergeDigestsGatesAndOrders(t *testing.T) {
	if MergeDigests(1, nil, 0) != nil {
		t.Fatal("no digests must merge to nil")
	}
	mk := func(id int, offered, shed uint64, dst ...sketch.HeavyHitter) *sketch.Digest {
		return &sketch.Digest{
			MonitorID: id, Epoch: 1,
			Offered: offered, Shed: shed, Kept: offered - shed,
			TopDst: dst,
		}
	}
	// Below the offered floor: no verdicts regardless of share.
	rep := MergeDigests(1, []*sketch.Digest{
		mk(0, 100, 0, sketch.HeavyHitter{Key: 9, Count: 90}),
	}, 0)
	if len(rep.Verdicts) != 0 {
		t.Fatalf("sub-floor epoch issued verdicts: %+v", rep.Verdicts)
	}
	// Two monitors: addr 9's share clears the gate only once merged
	// (900/6000), addr 5 clears it from one monitor alone (700/6000 ≥
	// 0.10 is false — 0.1167 with count 700), addr 3 stays below.
	rep = MergeDigests(2, []*sketch.Digest{
		mk(0, 3000, 100, sketch.HeavyHitter{Key: 5, Count: 700}, sketch.HeavyHitter{Key: 9, Count: 400}),
		mk(1, 3000, 200, sketch.HeavyHitter{Key: 9, Count: 500}, sketch.HeavyHitter{Key: 3, Count: 100}),
	}, 0)
	if rep.Offered != 6000 || rep.Shed != 300 || rep.Kept != 5700 {
		t.Fatalf("merged accounting wrong: %+v", rep)
	}
	if rep.ShedFraction() != 300.0/6000.0 {
		t.Fatalf("shed fraction = %v", rep.ShedFraction())
	}
	if len(rep.Verdicts) != 2 {
		t.Fatalf("want 2 dst verdicts (addrs 9 and 5 over the 0.10 gate): %+v", rep.Verdicts)
	}
	if rep.Verdicts[0].Addr != 9 || rep.Verdicts[0].Packets != 900 {
		t.Fatalf("heaviest verdict must lead: %+v", rep.Verdicts)
	}
	if rep.Verdicts[1].Addr != 5 || rep.Verdicts[1].Packets != 700 {
		t.Fatalf("second verdict must be addr 5: %+v", rep.Verdicts)
	}
}

// lingerConn holds every Write for a moment after the bytes are out: the
// peer has the frame while the writer has not yet returned.
type lingerConn struct {
	net.Conn
	linger time.Duration
}

func (c lingerConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	time.Sleep(c.linger)
	return n, err
}

// TestPollThenImmediateIngestKeepsDigest: a caller that feeds the next
// epoch the moment Poll returns must find every one of those packets in
// the next digest. The server used to reset the sketch after writing the
// poll's last frame, so the reset could land on top of them; lingerConn
// holds the server in that write long enough for the feed to get in
// first every time, which is what a loaded machine did one run in four.
func TestPollThenImmediateIngestKeepsDigest(t *testing.T) {
	cfg := smallSummaryConfig()
	m, err := NewMonitorSketch(4, cfg, sketch.Config{Enabled: true, ShedWatermark: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- (&MonitorServer{Monitor: m}).Serve(lingerConn{Conn: server, linger: 200 * time.Microsecond})
	}()
	remote, err := DialMonitorRetry(oneShot(client), RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}

	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(25))
	const rounds = 200
	fed := cfg.MinBatch + 10
	if err := m.IngestBatch(bg.Batch(fed)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		_, _, dg, err := remote.Poll(uint64(round))
		if err != nil {
			t.Fatal(err)
		}
		// Feed before looking at anything: this is the window the late
		// reset used to fall into.
		next := cfg.MinBatch + 1 + round%7
		if err := m.IngestBatch(bg.Batch(next)); err != nil {
			t.Fatal(err)
		}
		if dg == nil {
			t.Fatalf("round %d: poll carried no digest", round)
		}
		if dg.Offered != uint64(fed) {
			t.Fatalf("round %d: digest offered %d packets, %d were fed since the last poll", round, dg.Offered, fed)
		}
		fed = next
	}
	remote.Close()
	if err := <-done; err != nil {
		t.Fatalf("server exited with %v", err)
	}
}
