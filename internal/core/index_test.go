package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/inference"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/snort"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// unindexedOracle turns a controller into the reference the index is
// checked against: with a nil index ProcessEpoch prunes no question.
// Each question still runs the estimator's row windows; those are
// compared with a sweep over every centroid where the sweep lives
// (inference's TestEstimateWindowEqualsSweep and linearSweepOracle).
func unindexedOracle(c *Controller) { c.index = nil }

// uniformFeedbackConfigs returns the same two-stage band for every
// question: τ_d1 0.015, τ_d2 0.12, stage-2 count scale 0.55.
func uniformFeedbackConfigs(qs map[rules.AttackID]*rules.Question) map[rules.AttackID]inference.FeedbackConfig {
	fb := make(map[rules.AttackID]inference.FeedbackConfig, len(qs))
	for id := range qs {
		fb[id] = inference.FeedbackConfig{TauD1: 0.015, TauD2: 0.12, CountScale2: 0.55}
	}
	return fb
}

// sweepOracle is the reference the controller's evaluator is checked
// against over one epoch's summaries: a fresh aggregate, then every
// question in evaluation order through the one-question path with no
// index — inference.EstimateSimilarity, or RunFeedbackIndexed over a
// fetcher that memoizes the epoch's centroids — which inference's
// TestEstimateWindowEqualsSweep and TestRunFeedbackIndexedEquivalence
// hold to a sweep over every centroid. It returns the alert lines and the
// raw headers fetched, charged as the controller charges them: a shared
// centroid to the first question that wants it.
func sweepOracle(t *testing.T, c *Controller, fb map[rules.AttackID]inference.FeedbackConfig, ss []*summary.Summary,
	epoch uint64, sources map[int]RawSource) (string, int) {
	t.Helper()
	agg, err := inference.AggregateSummaries(ss)
	if err != nil {
		t.Fatal(err)
	}
	var matcher inference.RawMatcher = snort.RawMatcher{Env: testEnv()}
	fet := &memoFetcher{sources: sources, memo: make(map[inference.CentroidRef][]packet.Header)}
	var alerts []*inference.Alert
	fetched := 0
	for i, id := range c.ids {
		if cfg, ok := fb[id]; ok {
			r, err := inference.RunFeedbackIndexed(agg, c.qs[i], cfg, fet, matcher, true)
			if err != nil {
				t.Fatal(err)
			}
			fetched += r.RawPackets
			if r.Alerted {
				alerts = append(alerts, inference.NewAlertFromFeedback(id, epoch, r, inference.DefaultClock))
			}
			continue
		}
		if m := inference.EstimateSimilarity(agg, c.qs[i]); m.Alerted() {
			alerts = append(alerts, inference.NewAlertFromMatch(id, epoch, m, inference.DefaultClock))
		}
	}
	return alertsString(alerts), fetched
}

// runIndexWorkload drives five epochs of seeded mixed traffic through a
// pipeline's monitors, runs each epoch's summaries through the
// controller — question index and evaluator — and through sweepOracle,
// and fails on the first epoch on which the two raise different alerts
// or fetch different raw headers. It returns the alert trace and the
// controller's stats.
func runIndexWorkload(t *testing.T, workers int, useFeedback bool) (string, Stats) {
	t.Helper()
	qs := testQuestions(t, 2500)
	cc := ControllerConfig{
		Env:       testEnv(),
		Questions: qs,
		Workers:   workers,
	}
	if useFeedback {
		cc.Feedback = uniformFeedbackConfigs(qs)
		cc.UseFeedback = true
	}
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 4,
		Summary:     smallSummaryConfig(),
		Controller:  cc,
		Workers:     workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	sources := make(map[int]RawSource)
	for _, m := range p.Monitors {
		sources[m.ID()] = m
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(11))
	atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 11, Victim: 0x0A000001})
	if err != nil {
		t.Fatal(err)
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 11})
	var trace string
	for round := 0; round < 5; round++ {
		for _, lp := range mix.Batch(2500) {
			if err := p.Ingest(lp.Header); err != nil {
				t.Fatal(err)
			}
		}
		epoch := p.Controller.Epoch()
		polled := pollAll(p.Endpoints, workers, epoch)
		before := p.Controller.Stats().RawPacketsFetched
		alerts, err := p.Controller.ProcessEpoch(polled.Summaries)
		if err != nil {
			t.Fatal(err)
		}
		got, fetched := alertsString(alerts), p.Controller.Stats().RawPacketsFetched-before
		want, wantFetched := sweepOracle(t, p.Controller, cc.Feedback, polled.Summaries, epoch, sources)
		if got != want || fetched != wantFetched {
			t.Fatalf("workers=%d feedback=%v round %d: evaluator raised\n%sand fetched %d raw headers; the sweep raised\n%sand fetched %d",
				workers, useFeedback, round, got, fetched, want, wantFetched)
		}
		trace += fmt.Sprintf("round %d: %d alerts\n%s", round, len(alerts), got)
	}
	return trace, p.Controller.Stats()
}

// TestControllerIndexByteIdentical is H's gate at the controller level:
// every epoch, the alerts the evaluator raises over the question index's
// candidates are byte-identical to the per-question sweep's
// (sweepOracle), sequentially and fanned out, and so are the two runs'
// traces and stats.
func TestControllerIndexByteIdentical(t *testing.T) {
	wantTrace, wantStats := runIndexWorkload(t, 1, false)
	if wantStats.AlertsRaised == 0 {
		t.Fatal("workload raised no alerts — equivalence would be vacuous")
	}
	if trace, stats := runIndexWorkload(t, runtime.GOMAXPROCS(0), false); trace != wantTrace || stats != wantStats {
		t.Errorf("fanned out: %+v\n%s\nsequential: %+v\n%s", stats, trace, wantStats, wantTrace)
	}
}

// TestControllerIndexByteIdenticalFeedback extends byte-identity
// through the two-stage feedback path (fetches, verdicts, accounting):
// the evaluator's stages and the round's raw re-analysis against
// RunFeedbackIndexed question by question, sequentially and fanned out.
func TestControllerIndexByteIdenticalFeedback(t *testing.T) {
	wantTrace, wantStats := runIndexWorkload(t, 1, true)
	if wantStats.AlertsRaised == 0 || wantStats.RawPacketsFetched == 0 {
		t.Fatalf("workload raised %d alerts and fetched %d raw headers; the equivalence would be vacuous",
			wantStats.AlertsRaised, wantStats.RawPacketsFetched)
	}
	if trace, stats := runIndexWorkload(t, runtime.GOMAXPROCS(0), true); trace != wantTrace || stats != wantStats {
		t.Errorf("fanned out: %+v\n%s\nsequential: %+v\n%s", stats, trace, wantStats, wantTrace)
	}
}

// TestControllerIndexScale runs a generated 2000-rule library through
// the controller both ways and compares the full alert streams —
// the index must stay invisible at scale, not just on the seven
// built-in attacks.
func TestControllerIndexScale(t *testing.T) {
	gen, err := rules.GenerateQuestions(rules.GenConfig{Rules: 2000, Seed: 13},
		rules.NewEnvironment(), rules.DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := testQuestions(t, 2500)
	for _, q := range gen {
		base[rules.AttackID(fmt.Sprintf("gen-%07d", q.Rule.SID))] = q
	}
	run := func(disable bool) (string, Stats) {
		p, err := NewPipeline(PipelineConfig{
			NumMonitors: 2,
			Summary:     smallSummaryConfig(),
			Controller: ControllerConfig{
				Env: testEnv(), Questions: base,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if disable {
			unindexedOracle(p.Controller)
		}
		bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(19))
		atk, _ := trafficgen.NewAttack(rules.AttackSYNFlood,
			trafficgen.AttackConfig{Seed: 19, Victim: 0x0A000001})
		mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 19})
		var trace string
		for round := 0; round < 2; round++ {
			for _, lp := range mix.Batch(2500) {
				if err := p.Ingest(lp.Header); err != nil {
					t.Fatal(err)
				}
			}
			res, err := p.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range res.Alerts {
				trace += a.String() + "\n"
			}
		}
		return trace, p.Controller.Stats()
	}
	linTrace, linStats := run(true)
	ixTrace, ixStats := run(false)
	if linTrace != ixTrace {
		t.Errorf("2000-rule alert traces differ with index on vs off:\n--- linear ---\n%s--- indexed ---\n%s",
			linTrace, ixTrace)
	}
	if linStats != ixStats {
		t.Errorf("stats differ: linear %+v, indexed %+v", linStats, ixStats)
	}
}

// TestControllerReusesRoundStorage wants two consecutive ProcessEpoch
// calls on one controller to give what two fresh controllers give, one
// epoch each: the same alerts (their epoch stamps aside) and, summed, the
// same stats. The first epoch aggregates more summaries than the second,
// so the second round runs in storage that still holds a larger round.
func TestControllerReusesRoundStorage(t *testing.T) {
	qs := testQuestions(t, 1500)
	cfg := ControllerConfig{Env: testEnv(), Questions: qs, Feedback: uniformFeedbackConfigs(qs), UseFeedback: true, Workers: 2}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(5))
	atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood, trafficgen.AttackConfig{Seed: 5, Victim: 0x0A000001})
	if err != nil {
		t.Fatal(err)
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 5})
	var epochs [2][]*summary.Summary
	for e, monitors := range []int{3, 1} {
		for id := range monitors {
			m, err := NewMonitorSketch(id, smallSummaryConfig(), sketch.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, lp := range mix.Batch(1500) {
				if err := m.Ingest(lp.Header); err != nil {
					t.Fatal(err)
				}
			}
			ss, _, err := m.CollectSummaries()
			if err != nil {
				t.Fatal(err)
			}
			epochs[e] = append(epochs[e], ss...)
		}
	}
	// unstamped renders alerts without the epoch they were raised in.
	unstamped := func(as []*inference.Alert) string {
		s := ""
		for _, a := range as {
			b := *a
			b.Epoch, b.Time = 0, time.Time{}
			s += fmt.Sprintf("%+v\n", b)
		}
		return s
	}
	reused, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fresh Stats
	alerts := 0
	for e, ss := range epochs {
		got, err := reused.ProcessEpoch(ss)
		if err != nil {
			t.Fatal(err)
		}
		one, err := NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := one.ProcessEpoch(ss)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := unstamped(got), unstamped(want); g != w {
			t.Fatalf("epoch %d on a reused controller raised\n%s\na fresh controller\n%s", e, g, w)
		}
		alerts += len(got)
		st := one.Stats()
		fresh.Epochs += st.Epochs
		fresh.SummaryElements += st.SummaryElements
		fresh.PacketsSummarized += st.PacketsSummarized
		fresh.RawPacketsFetched += st.RawPacketsFetched
		fresh.AlertsRaised += st.AlertsRaised
	}
	if alerts == 0 {
		t.Fatal("no alerts: the comparison shows nothing")
	}
	if got := reused.Stats(); got != fresh {
		t.Fatalf("reused controller's stats %+v, fresh controllers' summed %+v", got, fresh)
	}
}
