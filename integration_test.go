package repro_test

import (
	"net"
	"net/netip"
	"testing"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// TestFullDeploymentOverTCP is the capstone integration test: three
// monitor daemons served over real TCP sockets, a controller that dials
// them, polls summaries each epoch, runs the two-stage feedback
// inference (fetching raw packets over the wire when uncertain), and
// must detect an injected distributed SYN flood while staying quiet on
// clean epochs.
func TestFullDeploymentOverTCP(t *testing.T) {
	const (
		numMonitors = 3
		epochVolume = 6000
	)

	env := rules.NewEnvironment()
	env.Set("HOME_NET", netip.MustParsePrefix("10.0.0.0/8"))
	questions, err := rules.LibraryQuestions(env, rules.TranslateConfig{
		DefaultDistanceThreshold: 0.05,
		VarianceThreshold:        0.003,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedback := make(map[rules.AttackID]inference.FeedbackConfig, len(questions))
	for id, q := range questions {
		questions[id] = q.ScaleForVolume(epochVolume)
		feedback[id] = inference.FeedbackConfig{
			TauD1:       q.EffectiveTau(0.015),
			TauD2:       q.EffectiveTau(0.12),
			CountScale2: 0.55,
		}
	}

	ctrl, err := core.NewController(core.ControllerConfig{
		Env: env, Questions: questions,
		Feedback: feedback, UseFeedback: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Spin up the monitor daemons on loopback TCP.
	monitors := make([]*core.Monitor, numMonitors)
	endpoints := make([]core.Endpoint, numMonitors)
	for i := 0; i < numMonitors; i++ {
		m, err := core.NewMonitorSketch(i, summary.Config{
			BatchSize: 1000, Rank: 12, Centroids: 200, MinBatch: 500, Seed: int64(i) + 1,
		}, sketch.Config{})
		if err != nil {
			t.Fatal(err)
		}
		monitors[i] = m

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func(srv *core.MonitorServer) {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			srv.Serve(conn)
		}(&core.MonitorServer{Monitor: m})

		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// One attempt per exchange (the zero RetryConfig) over the one
		// connection this monitor accepts.
		remote, err := core.DialMonitorRetry(func() (net.Conn, error) { return conn, nil }, core.RetryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ctrl.RegisterSource(remote.ID(), remote)
		endpoints[i] = remote
	}
	engine := &core.Engine{Controller: ctrl, Endpoints: endpoints}

	// ingestEpoch spreads one epoch of traffic round-robin over the
	// monitors, then runs the engine — the controller tick of §7.
	ingestEpoch := func(withAttack bool, seed int64) []*inference.Alert {
		t.Helper()
		bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(seed))
		var atk trafficgen.Attack
		if withAttack {
			var err error
			atk, err = trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
				trafficgen.AttackConfig{Seed: seed, Victim: 0x0A000001})
			if err != nil {
				t.Fatal(err)
			}
		}
		mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: seed})
		for i := 0; i < epochVolume; i++ {
			if err := monitors[i%numMonitors].Ingest(mix.Next().Header); err != nil {
				t.Fatal(err)
			}
		}
		res, err := engine.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || len(res.Declines) != 0 {
			t.Fatalf("epoch %d: degraded=%v, declines %+v", res.Epoch, res.Degraded, res.Declines)
		}
		return res.Alerts
	}

	// Epoch 0: clean. No flood alerts expected.
	for _, a := range ingestEpoch(false, 61) {
		if a.Attack == rules.AttackDistributedSYNFlood || a.Attack == rules.AttackSYNFlood {
			t.Fatalf("clean epoch raised flood alert: %v", a)
		}
	}

	// Epoch 1: distributed SYN flood injected.
	detected := false
	for _, a := range ingestEpoch(true, 62) {
		if a.Attack == rules.AttackDistributedSYNFlood {
			detected = true
			if !a.Distributed {
				t.Fatal("flood from 200 sources must classify as distributed")
			}
		}
	}
	if !detected {
		t.Fatal("distributed SYN flood not detected over the TCP deployment")
	}

	// Communication accounting must show the summary economy.
	st := ctrl.Stats()
	if st.PacketsSummarized == 0 {
		t.Fatal("no packets accounted")
	}
	summaryFrac := float64(st.SummaryBytes()) / float64(st.RawHeaderBytes())
	if summaryFrac > 0.40 {
		t.Fatalf("summary bytes are %.1f%% of raw, want ≤40%%", 100*summaryFrac)
	}
}
