package core

import (
	"testing"

	"repro/internal/rules"
	"repro/internal/trafficgen"
)

// TestPipelineDetectsUDPFlood exercises the mixed-protocol path: UDP
// background plus a UDP flood, detected by the udp rule without
// cross-firing the TCP signatures. The summarization rank is raised to
// 14 because a mixed-protocol batch matrix carries one more latent
// dimension than the TCP-only calibration point.
func TestPipelineDetectsUDPFlood(t *testing.T) {
	scfg := smallSummaryConfig()
	scfg.Rank = 14
	qs := testQuestions(t, 6000)
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 3,
		Summary:     scfg,
		Controller:  ControllerConfig{Env: testEnv(), Questions: qs},
	})
	if err != nil {
		t.Fatal(err)
	}

	bgCfg := trafficgen.DefaultBackgroundConfig(31)
	bgCfg.UDPFraction = 0.10
	bg := trafficgen.NewBackground(bgCfg)
	atk, err := trafficgen.NewAttack(rules.AttackUDPFlood,
		trafficgen.AttackConfig{Seed: 31, Victim: 0x0A000001, VictimPort: 53})
	if err != nil {
		t.Fatal(err)
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 31})
	for _, lp := range mix.Batch(6000) {
		if err := p.Ingest(lp.Header); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Alerts {
		if a.Attack == rules.AttackUDPFlood {
			found = true
		}
		if a.Attack == rules.AttackSYNFlood || a.Attack == rules.AttackDistributedSYNFlood {
			t.Fatalf("UDP flood must not cross-fire TCP flood rules: %v", a)
		}
	}
	if !found {
		t.Fatalf("UDP flood not detected; alerts: %v", res.Alerts)
	}
}

// TestPipelineUDPBackgroundQuiet checks mixed benign traffic does not
// fire the UDP flood rule.
func TestPipelineUDPBackgroundQuiet(t *testing.T) {
	scfg := smallSummaryConfig()
	scfg.Rank = 14
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 3,
		Summary:     scfg,
		Controller:  ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 6000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	bgCfg := trafficgen.DefaultBackgroundConfig(32)
	bgCfg.UDPFraction = 0.10
	bg := trafficgen.NewBackground(bgCfg)
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
		if a.Attack == rules.AttackUDPFlood {
			t.Fatalf("false UDP flood alert on benign mixed traffic: %v", a)
		}
	}
}
